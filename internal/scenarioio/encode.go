package scenarioio

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"dsmec/internal/compute"
	"dsmec/internal/datamap"
	"dsmec/internal/mecnet"
	"dsmec/internal/sim"
	"dsmec/internal/task"
	"dsmec/internal/workload"
)

// flushSize is how much output the encoder buffers before writing it.
const flushSize = 32 << 10

// spaces indents up to eight levels, two spaces each.
const spaces = "                "

// encoder appends a document in the layout of encoding/json's
// json.Encoder with SetIndent("", "  ") and writes it out in flushSize
// chunks, so the document never exists in memory whole.
type encoder struct {
	w     io.Writer
	buf   []byte
	depth int
	empty bool // the innermost open object or array has no members yet
	err   error

	// elem, index and key name what is being written, for errors.
	elem  string
	index int
	key   string
}

func (e *encoder) open(c byte) {
	e.buf = append(e.buf, c)
	e.depth++
	e.empty = true
}

func (e *encoder) close(c byte) {
	e.depth--
	if !e.empty {
		e.newline()
	}
	e.buf = append(e.buf, c)
	e.empty = false
}

func (e *encoder) newline() {
	e.buf = append(e.buf, '\n')
	e.buf = append(e.buf, spaces[:2*e.depth]...)
}

// member starts the next array element or object field.
func (e *encoder) member() {
	if !e.empty {
		e.buf = append(e.buf, ',')
	}
	e.empty = false
	e.newline()
}

func (e *encoder) field(key string) {
	e.member()
	e.key = key
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, `": `...)
}

func (e *encoder) int(v int) { e.buf = strconv.AppendInt(e.buf, int64(v), 10) }

func (e *encoder) int64(v int64) { e.buf = strconv.AppendInt(e.buf, v, 10) }

func (e *encoder) str(s string) { e.buf = appendString(e.buf, s) }

func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			where := e.key
			if e.elem != "" {
				where = fmt.Sprintf("%s %d: %s", e.elem, e.index, e.key)
			}
			e.err = fmt.Errorf("scenarioio: %s: unsupported value %v", where, f)
		}
		return
	}
	e.buf = appendFloat(e.buf, f)
}

// array writes n elements named what, elem writing element i. An empty
// array is written as null, as encoding/json writes a nil slice.
func (e *encoder) array(what string, n int, elem func(i int)) {
	if n == 0 {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.open('[')
	for i := 0; i < n && e.err == nil; i++ {
		e.member()
		e.elem, e.index = what, i
		elem(i)
		if len(e.buf) >= flushSize {
			e.flush()
		}
	}
	e.elem = ""
	e.close(']')
}

func (e *encoder) blocks(bs []datamap.BlockID) {
	e.open('[')
	for _, b := range bs {
		e.member()
		e.int(int(b))
	}
	e.close(']')
}

func (e *encoder) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// encode writes sc, and fp unless it is nil, as one document.
func encode(w io.Writer, sc *workload.Scenario, fp *sim.FaultPlan) error {
	if sc == nil || sc.System == nil || sc.Tasks == nil {
		return fmt.Errorf("scenarioio: incomplete scenario")
	}
	kind, value, err := resultModelSpec(sc.Params.ResultModel)
	if err != nil {
		return err
	}
	e := &encoder{w: w, buf: make([]byte, 0, 2*flushSize)}
	sys := sc.System
	e.open('{')
	e.field("version")
	e.int(FormatVersion)
	e.field("system")
	e.open('{')
	e.field("devices")
	e.array("device", len(sys.Devices), func(i int) { e.device(&sys.Devices[i]) })
	e.field("stations")
	e.array("station", len(sys.Stations), func(i int) {
		st := &sys.Stations[i]
		e.open('{')
		e.field("freq_ghz")
		e.float(st.Proc.Frequency.GHz())
		e.field("resource_cap")
		e.float(st.ResourceCap)
		e.close('}')
	})
	e.field("cloud_ghz")
	e.float(sys.Cloud.Proc.Frequency.GHz())
	e.field("wires")
	e.wires(sys)
	e.close('}')

	e.field("cost_model")
	e.open('{')
	e.field("cycles_per_byte")
	e.float(compute.DefaultLambda) // costmodel hides λ; generated scenarios use the default
	e.field("result_kind")
	e.str(kind)
	e.field("result_value")
	e.float(value)
	e.close('}')

	e.field("tasks")
	e.array("task", sc.Tasks.Len(), func(i int) { e.task(sc.Tasks.At(i)) })
	if p := sc.Placement; p != nil {
		e.field("placement")
		e.open('{')
		e.field("num_blocks")
		e.int(p.NumBlocks())
		e.field("block_bytes")
		e.int64(p.BlockSize().Bytes())
		e.field("holdings")
		e.array("holding", p.NumDevices(), func(i int) {
			holding, err := p.Holding(i)
			if err != nil && e.err == nil {
				e.err = fmt.Errorf("scenarioio: %w", err)
			}
			e.blocks(holding.Blocks())
		})
		e.close('}')
	}
	if fp != nil {
		e.field("faults")
		e.faults(fp)
	}
	e.close('}')
	e.buf = append(e.buf, '\n')
	e.flush()
	return e.err
}

func (e *encoder) device(d *mecnet.Device) {
	e.open('{')
	e.field("station")
	e.int(d.Station)
	e.field("upload_mbps")
	e.float(d.Link.Upload.Mbps())
	e.field("download_mbps")
	e.float(d.Link.Download.Mbps())
	e.field("tx_power_w")
	e.float(float64(d.Link.TxPower))
	e.field("rx_power_w")
	e.float(float64(d.Link.RxPower))
	e.field("tech")
	e.str(d.Link.Tech.String())
	e.field("freq_ghz")
	e.float(d.Proc.Frequency.GHz())
	e.field("kappa")
	e.float(d.Proc.Kappa)
	e.field("resource_cap")
	e.float(d.ResourceCap)
	e.close('}')
}

func (e *encoder) wires(sys *mecnet.System) {
	e.open('{')
	e.field("station_latency_s")
	e.float(sys.StationWire.Latency.Seconds())
	e.field("station_bandwidth_bps")
	e.float(float64(sys.StationWire.Bandwidth))
	e.field("station_joule_per_byte")
	e.float(float64(sys.StationWire.EnergyPerByte))
	e.field("cloud_latency_s")
	e.float(sys.CloudWire.Latency.Seconds())
	e.field("cloud_bandwidth_bps")
	e.float(float64(sys.CloudWire.Bandwidth))
	e.field("cloud_joule_per_byte")
	e.float(float64(sys.CloudWire.EnergyPerByte))
	e.close('}')
}

func (e *encoder) task(t *task.Task) {
	e.open('{')
	e.field("user")
	e.int(t.ID.User)
	e.field("index")
	e.int(t.ID.Index)
	e.field("kind")
	e.str(t.Kind.String())
	e.field("op_bytes")
	e.int64(t.OpSize.Bytes())
	e.field("local_bytes")
	e.int64(t.LocalSize.Bytes())
	e.field("external_bytes")
	e.int64(t.ExternalSize.Bytes())
	if t.ExternalSource != task.NoExternalSource {
		e.field("external_source")
		e.int(t.ExternalSource)
	}
	e.field("resource")
	e.float(t.Resource)
	e.field("deadline_s")
	e.float(t.Deadline.Seconds())
	if !t.LocalBlocks.IsEmpty() {
		e.field("local_blocks")
		e.blocks(t.LocalBlocks.Blocks())
	}
	if !t.ExternalBlocks.IsEmpty() {
		e.field("external_blocks")
		e.blocks(t.ExternalBlocks.Blocks())
	}
	e.close('}')
}

// faults writes a fault plan; like encoding/json's omitempty, it skips
// empty lists and zero scalars.
func (e *encoder) faults(fp *sim.FaultPlan) {
	e.open('{')
	if n := len(fp.StationOutages); n > 0 {
		e.field("station_outages")
		e.array("station outage", n, func(i int) {
			o := &fp.StationOutages[i]
			e.open('{')
			e.field("station")
			e.int(o.Station)
			e.field("at_s")
			e.float(o.At.Seconds())
			e.field("repair_s")
			e.float(o.Repair.Seconds())
			e.close('}')
		})
	}
	if n := len(fp.DeviceDepartures); n > 0 {
		e.field("device_departures")
		e.array("device departure", n, func(i int) {
			d := &fp.DeviceDepartures[i]
			e.open('{')
			e.field("device")
			e.int(d.Device)
			e.field("at_s")
			e.float(d.At.Seconds())
			e.close('}')
		})
	}
	if n := len(fp.LinkDegradations); n > 0 {
		e.field("link_degradations")
		e.array("link degradation", n, func(i int) {
			g := &fp.LinkDegradations[i]
			e.open('{')
			e.field("station")
			e.int(g.Station)
			e.field("link")
			e.str(g.Link.String())
			e.field("at_s")
			e.float(g.At.Seconds())
			e.field("duration_s")
			e.float(g.Duration.Seconds())
			e.field("slowdown")
			e.float(g.Slowdown)
			e.close('}')
		})
	}
	if t := fp.TransferTimeout.Seconds(); t != 0 {
		e.field("transfer_timeout_s")
		e.float(t)
	}
	if r := fp.Recovery; r != (sim.RecoveryPolicy{}) {
		e.field("recovery")
		e.open('{')
		if r.MaxRetries != 0 {
			e.field("max_retries")
			e.int(r.MaxRetries)
		}
		if b := r.BackoffBase.Seconds(); b != 0 {
			e.field("backoff_base_s")
			e.float(b)
		}
		if c := r.BackoffCap.Seconds(); c != 0 {
			e.field("backoff_cap_s")
			e.float(c)
		}
		if r.NoReassign {
			e.field("no_reassign")
			e.buf = append(e.buf, "true"...)
		}
		e.close('}')
	}
	e.close('}')
}

// appendFloat formats f as encoding/json does: like ES6, 'f' for
// 1e-6 <= |f| < 1e21 and 'e' otherwise, with a negative exponent's
// leading zero trimmed (1e-07 becomes 1e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on:
// <, > and & become \u003c, \u003e and \u0026, U+2028 and U+2029 are
// escaped, and invalid UTF-8 becomes \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

package scenarioio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"

	"dsmec/internal/backhaul"
	"dsmec/internal/compute"
	"dsmec/internal/datamap"
	"dsmec/internal/mecnet"
	"dsmec/internal/radio"
	"dsmec/internal/sim"
	"dsmec/internal/task"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

// The encoding/json oracle: the schema as tagged structs, encoded with
// json.Encoder.SetIndent("", "  ") and decoded with
// DisallowUnknownFields. The hand-written codec must write the oracle's
// bytes and read the oracle's values.

// Document is the on-disk form of a scenario.
type Document struct {
	Version   int           `json:"version"`
	System    systemDoc     `json:"system"`
	Cost      costDoc       `json:"cost_model"`
	Tasks     []taskDoc     `json:"tasks"`
	Placement *placementDoc `json:"placement,omitempty"`
	Faults    *faultsDoc    `json:"faults,omitempty"`
}

type systemDoc struct {
	Devices  []deviceDoc  `json:"devices"`
	Stations []stationDoc `json:"stations"`
	CloudGHz float64      `json:"cloud_ghz"`
	Wires    wiresDoc     `json:"wires"`
}

type deviceDoc struct {
	Station     int     `json:"station"`
	UploadMbps  float64 `json:"upload_mbps"`
	DownMbps    float64 `json:"download_mbps"`
	TxPowerW    float64 `json:"tx_power_w"`
	RxPowerW    float64 `json:"rx_power_w"`
	Tech        string  `json:"tech"`
	FreqGHz     float64 `json:"freq_ghz"`
	Kappa       float64 `json:"kappa"`
	ResourceCap float64 `json:"resource_cap"`
}

type stationDoc struct {
	FreqGHz     float64 `json:"freq_ghz"`
	ResourceCap float64 `json:"resource_cap"`
}

type wiresDoc struct {
	StationLatencyS float64 `json:"station_latency_s"`
	StationBps      float64 `json:"station_bandwidth_bps"`
	StationJPerByte float64 `json:"station_joule_per_byte"`
	CloudLatencyS   float64 `json:"cloud_latency_s"`
	CloudBps        float64 `json:"cloud_bandwidth_bps"`
	CloudJPerByte   float64 `json:"cloud_joule_per_byte"`
}

type costDoc struct {
	CyclesPerByte float64 `json:"cycles_per_byte"`
	ResultKind    string  `json:"result_kind"`
	ResultValue   float64 `json:"result_value"`
}

type taskDoc struct {
	User           int     `json:"user"`
	Index          int     `json:"index"`
	Kind           string  `json:"kind"`
	OpBytes        int64   `json:"op_bytes"`
	LocalBytes     int64   `json:"local_bytes"`
	ExternalBytes  int64   `json:"external_bytes"`
	ExternalSource *int    `json:"external_source,omitempty"`
	Resource       float64 `json:"resource"`
	DeadlineS      float64 `json:"deadline_s"`
	LocalBlocks    []int   `json:"local_blocks,omitempty"`
	ExternalBlocks []int   `json:"external_blocks,omitempty"`
}

type placementDoc struct {
	NumBlocks  int     `json:"num_blocks"`
	BlockBytes int64   `json:"block_bytes"`
	Holdings   [][]int `json:"holdings"`
}

type faultsDoc struct {
	StationOutages   []outageDoc      `json:"station_outages,omitempty"`
	DeviceDepartures []departureDoc   `json:"device_departures,omitempty"`
	LinkDegradations []degradationDoc `json:"link_degradations,omitempty"`
	TransferTimeoutS float64          `json:"transfer_timeout_s,omitempty"`
	Recovery         *recoveryDoc     `json:"recovery,omitempty"`
}

type outageDoc struct {
	Station int     `json:"station"`
	AtS     float64 `json:"at_s"`
	RepairS float64 `json:"repair_s"`
}

type departureDoc struct {
	Device int     `json:"device"`
	AtS    float64 `json:"at_s"`
}

type degradationDoc struct {
	Station   int     `json:"station"`
	Link      string  `json:"link"`
	AtS       float64 `json:"at_s"`
	DurationS float64 `json:"duration_s"`
	Slowdown  float64 `json:"slowdown"`
}

type recoveryDoc struct {
	MaxRetries   int     `json:"max_retries,omitempty"`
	BackoffBaseS float64 `json:"backoff_base_s,omitempty"`
	BackoffCapS  float64 `json:"backoff_cap_s,omitempty"`
	NoReassign   bool    `json:"no_reassign,omitempty"`
}

// toDocument converts a scenario and fault plan to the oracle schema.
func toDocument(sc *workload.Scenario, fp *sim.FaultPlan) (Document, error) {
	if sc == nil || sc.System == nil || sc.Tasks == nil {
		return Document{}, fmt.Errorf("incomplete scenario")
	}
	doc := Document{Version: FormatVersion, Faults: faultsToDoc(fp)}
	sys := sc.System
	for _, d := range sys.Devices {
		doc.System.Devices = append(doc.System.Devices, deviceDoc{
			Station:     d.Station,
			UploadMbps:  d.Link.Upload.Mbps(),
			DownMbps:    d.Link.Download.Mbps(),
			TxPowerW:    float64(d.Link.TxPower),
			RxPowerW:    float64(d.Link.RxPower),
			Tech:        d.Link.Tech.String(),
			FreqGHz:     d.Proc.Frequency.GHz(),
			Kappa:       d.Proc.Kappa,
			ResourceCap: d.ResourceCap,
		})
	}
	for _, s := range sys.Stations {
		doc.System.Stations = append(doc.System.Stations, stationDoc{
			FreqGHz: s.Proc.Frequency.GHz(), ResourceCap: s.ResourceCap,
		})
	}
	doc.System.CloudGHz = sys.Cloud.Proc.Frequency.GHz()
	doc.System.Wires = wiresDoc{
		StationLatencyS: sys.StationWire.Latency.Seconds(),
		StationBps:      float64(sys.StationWire.Bandwidth),
		StationJPerByte: float64(sys.StationWire.EnergyPerByte),
		CloudLatencyS:   sys.CloudWire.Latency.Seconds(),
		CloudBps:        float64(sys.CloudWire.Bandwidth),
		CloudJPerByte:   float64(sys.CloudWire.EnergyPerByte),
	}
	kind, value, err := resultModelSpec(sc.Params.ResultModel)
	if err != nil {
		return Document{}, err
	}
	doc.Cost = costDoc{CyclesPerByte: compute.DefaultLambda, ResultKind: kind, ResultValue: value}
	for _, t := range sc.Tasks.All() {
		td := taskDoc{
			User: t.ID.User, Index: t.ID.Index, Kind: t.Kind.String(),
			OpBytes: t.OpSize.Bytes(), LocalBytes: t.LocalSize.Bytes(), ExternalBytes: t.ExternalSize.Bytes(),
			Resource: t.Resource, DeadlineS: t.Deadline.Seconds(),
		}
		if t.ExternalSource != task.NoExternalSource {
			src := t.ExternalSource
			td.ExternalSource = &src
		}
		td.LocalBlocks = blockInts(t.LocalBlocks)
		td.ExternalBlocks = blockInts(t.ExternalBlocks)
		doc.Tasks = append(doc.Tasks, td)
	}
	if p := sc.Placement; p != nil {
		pd := &placementDoc{NumBlocks: p.NumBlocks(), BlockBytes: p.BlockSize().Bytes()}
		for i := 0; i < p.NumDevices(); i++ {
			holding, err := p.Holding(i)
			if err != nil {
				return Document{}, err
			}
			pd.Holdings = append(pd.Holdings, append([]int{}, blockInts(holding)...))
		}
		doc.Placement = pd
	}
	return doc, nil
}

func blockInts(s *datamap.Set) []int {
	var out []int
	for _, b := range s.Blocks() {
		out = append(out, int(b))
	}
	return out
}

func faultsToDoc(fp *sim.FaultPlan) *faultsDoc {
	if fp == nil {
		return nil
	}
	doc := &faultsDoc{TransferTimeoutS: fp.TransferTimeout.Seconds()}
	for _, o := range fp.StationOutages {
		doc.StationOutages = append(doc.StationOutages, outageDoc{
			Station: o.Station, AtS: o.At.Seconds(), RepairS: o.Repair.Seconds(),
		})
	}
	for _, d := range fp.DeviceDepartures {
		doc.DeviceDepartures = append(doc.DeviceDepartures, departureDoc{Device: d.Device, AtS: d.At.Seconds()})
	}
	for _, g := range fp.LinkDegradations {
		doc.LinkDegradations = append(doc.LinkDegradations, degradationDoc{
			Station: g.Station, Link: g.Link.String(),
			AtS: g.At.Seconds(), DurationS: g.Duration.Seconds(), Slowdown: g.Slowdown,
		})
	}
	if r := fp.Recovery; r != (sim.RecoveryPolicy{}) {
		doc.Recovery = &recoveryDoc{
			MaxRetries: r.MaxRetries, BackoffBaseS: r.BackoffBase.Seconds(),
			BackoffCapS: r.BackoffCap.Seconds(), NoReassign: r.NoReassign,
		}
	}
	return doc
}

// encodeDocument is the oracle encoder.
func encodeDocument(w io.Writer, sc *workload.Scenario, fp *sim.FaultPlan) error {
	doc, err := toDocument(sc, fp)
	if err != nil {
		return err
	}
	return writeDocument(w, doc)
}

// writeDocument writes a raw oracle document, for tests that corrupt one.
func writeDocument(w io.Writer, doc Document) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// readDocument parses a raw oracle document.
func readDocument(data []byte) (Document, error) {
	var doc Document
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&doc)
	return doc, err
}

// decodeDocument is the oracle decoder: encoding/json into Document, then
// the same unit conversions the scanner applies and the shared assembly.
func decodeDocument(data []byte) (*workload.Scenario, *sim.FaultPlan, error) {
	doc, err := readDocument(data)
	if err != nil {
		return nil, nil, err
	}
	if doc.Version != FormatVersion {
		return nil, nil, fmt.Errorf("unsupported version %d", doc.Version)
	}
	sys := &mecnet.System{
		Cloud: mecnet.Cloud{Proc: compute.Processor{Frequency: units.Frequency(doc.System.CloudGHz) * units.Gigahertz}},
	}
	w := doc.System.Wires
	sys.StationWire = backhaul.Wire{
		Latency: units.Duration(w.StationLatencyS), Bandwidth: units.BitRate(w.StationBps),
		EnergyPerByte: units.Energy(w.StationJPerByte),
	}
	sys.CloudWire = backhaul.Wire{
		Latency: units.Duration(w.CloudLatencyS), Bandwidth: units.BitRate(w.CloudBps),
		EnergyPerByte: units.Energy(w.CloudJPerByte),
	}
	for _, d := range doc.System.Devices {
		sys.Devices = append(sys.Devices, mecnet.Device{
			Station: d.Station,
			Link: radio.Link{
				Tech:     techFromString(d.Tech),
				Upload:   units.BitRate(d.UploadMbps) * units.MbitPerSecond,
				Download: units.BitRate(d.DownMbps) * units.MbitPerSecond,
				TxPower:  units.Power(d.TxPowerW),
				RxPower:  units.Power(d.RxPowerW),
			},
			Proc:        compute.Processor{Frequency: units.Frequency(d.FreqGHz) * units.Gigahertz, Kappa: d.Kappa},
			ResourceCap: d.ResourceCap,
		})
	}
	for _, s := range doc.System.Stations {
		sys.Stations = append(sys.Stations, mecnet.Station{
			Proc:        compute.Processor{Frequency: units.Frequency(s.FreqGHz) * units.Gigahertz},
			ResourceCap: s.ResourceCap,
		})
	}
	ts := &task.Set{}
	for i, td := range doc.Tasks {
		t := &task.Task{
			ID:             task.ID{User: td.User, Index: td.Index},
			Kind:           kindFromString(td.Kind),
			OpSize:         units.ByteSize(td.OpBytes),
			LocalSize:      units.ByteSize(td.LocalBytes),
			ExternalSize:   units.ByteSize(td.ExternalBytes),
			ExternalSource: task.NoExternalSource,
			Resource:       td.Resource,
			Deadline:       units.Duration(td.DeadlineS),
			LocalBlocks:    blockSet(td.LocalBlocks),
			ExternalBlocks: blockSet(td.ExternalBlocks),
		}
		if td.ExternalSource != nil {
			t.ExternalSource = *td.ExternalSource
		}
		if err := ts.Add(t); err != nil {
			return nil, nil, fmt.Errorf("task %d: %w", i, err)
		}
	}
	var ps *placementSpec
	if pd := doc.Placement; pd != nil {
		ps = &placementSpec{numBlocks: pd.NumBlocks, blockBytes: pd.BlockBytes, holdings: pd.Holdings}
	}
	cost := &costSpec{cyclesPerByte: doc.Cost.CyclesPerByte, resultKind: doc.Cost.ResultKind, resultValue: doc.Cost.ResultValue}
	sc, err := assemble(sys, cost, ts, ps)
	if err != nil {
		return nil, nil, err
	}
	fp, err := faultsFromDoc(doc.Faults)
	if err != nil {
		return nil, nil, err
	}
	return sc, fp, nil
}

func blockSet(blocks []int) *datamap.Set {
	if len(blocks) == 0 {
		return nil
	}
	s := datamap.NewSet()
	for _, b := range blocks {
		s.Add(datamap.BlockID(b))
	}
	return s
}

func faultsFromDoc(doc *faultsDoc) (*sim.FaultPlan, error) {
	if doc == nil {
		return nil, nil
	}
	fp := &sim.FaultPlan{TransferTimeout: units.Duration(doc.TransferTimeoutS)}
	for _, o := range doc.StationOutages {
		fp.StationOutages = append(fp.StationOutages, sim.StationOutage{
			Station: o.Station, At: units.Duration(o.AtS), Repair: units.Duration(o.RepairS),
		})
	}
	for _, d := range doc.DeviceDepartures {
		fp.DeviceDepartures = append(fp.DeviceDepartures, sim.DeviceDeparture{Device: d.Device, At: units.Duration(d.AtS)})
	}
	for _, g := range doc.LinkDegradations {
		link := linkFromString(g.Link)
		if link == 0 {
			return nil, fmt.Errorf("unknown link %q", g.Link)
		}
		fp.LinkDegradations = append(fp.LinkDegradations, sim.LinkDegradation{
			Station: g.Station, Link: link,
			At: units.Duration(g.AtS), Duration: units.Duration(g.DurationS), Slowdown: g.Slowdown,
		})
	}
	if r := doc.Recovery; r != nil {
		fp.Recovery = sim.RecoveryPolicy{
			MaxRetries: r.MaxRetries, BackoffBase: units.Duration(r.BackoffBaseS),
			BackoffCap: units.Duration(r.BackoffCapS), NoReassign: r.NoReassign,
		}
	}
	return fp, nil
}

// bitDiff describes the first difference between a and b, comparing
// floats by math.Float64bits (so -0 differs from 0), or returns "".
// Maps are compared key by key; nil and empty slices are equal.
func bitDiff(a, b any) string {
	return valueDiff("", reflect.ValueOf(a), reflect.ValueOf(b))
}

func valueDiff(path string, a, b reflect.Value) string {
	if a.IsValid() != b.IsValid() {
		return path + ": presence differs"
	}
	if !a.IsValid() {
		return ""
	}
	if a.Type() != b.Type() {
		return fmt.Sprintf("%s: type %v vs %v", path, a.Type(), b.Type())
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() != b.IsNil() {
			return path + ": nil vs non-nil"
		}
		if !a.IsNil() {
			return valueDiff(path, a.Elem(), b.Elem())
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := valueDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := valueDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: size %d vs %d", path, a.Len(), b.Len())
		}
		iter := a.MapRange()
		for iter.Next() {
			if d := valueDiff(fmt.Sprintf("%s[%v]", path, iter.Key()), iter.Value(), b.MapIndex(iter.Key())); d != "" {
				return d
			}
		}
	default:
		return fmt.Sprintf("%s: cannot compare kind %v", path, a.Kind())
	}
	return ""
}

// Package scenarioio serializes complete scenarios — topology, cost-model
// parameters, tasks, and (for divisible workloads) the data placement — to
// a versioned JSON document and back, optionally with a fault plan.
// Round-tripping a scenario preserves every quantity the algorithms read,
// so workloads can be generated once, archived, inspected, or exchanged
// with external tooling, and re-evaluated bit-for-bit later.
//
// The codec is written by hand for this one schema and streams in both
// directions. Encode writes exactly the bytes encoding/json's indented
// encoder would: two-space indentation, numbers formatted the way
// encoding/json formats them, its HTML-safe string escaping, and null
// for an empty devices, stations, tasks or holdings array. Decode scans
// the document through a read window of at most 1 MB and writes devices
// and stations straight into the system and tasks into the task set's
// arena.
//
// # Accepted grammar
//
// Decode accepts one JSON object, with only whitespace (space, tab, CR,
// LF) around it. Inside it:
//
//   - Keys are the schema's, matched exactly after unescaping. Each key
//     may appear once per object, in any order; an unknown or repeated
//     key is an error. A missing key reads as zero, except that a task's
//     kind defaults to holistic, its external source to none, and a
//     device's tech to custom.
//   - Numbers follow JSON's grammar,
//     -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and convert
//     with strconv.ParseFloat or strconv.ParseInt as encoding/json
//     converts them: an integer field rejects fractions and exponents,
//     and a value out of range is an error. A frequency or rate whose
//     conversion from GHz or Mbit/s overflows is an error too.
//   - Strings may use every JSON escape; a raw control character is an
//     error. Enumerations (tech, kind, result_kind, link) compare the
//     unescaped text.
//   - null reads as an empty array wherever an array goes, and as absent
//     for placement, faults, recovery and external_source. It is an
//     error anywhere else.
//   - One token (a number or a string) may be at most 1 MB long.
//
// Every error starts "scenarioio: ", names the element and the key, and
// gives the byte offset, as in
// `scenarioio: task 41: resource: expected number, found '"' at byte 18234`.
package scenarioio

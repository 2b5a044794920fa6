package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"sort"

	"valueexpert/internal/profile"
	"valueexpert/internal/vpattern"
)

// digestsJSON maps each workload, then each program it profiles, to the
// SHA-256 of the program's canonical report (see canonical). Regenerate it with
// `vxbench -write-digests` after a change that is meant to alter reports.
//
//go:embed digests.json
var digestsJSON []byte

// analysisTimeRE matches the one report field that varies between runs
// of the same program: the engine's own analysis wall time.
var analysisTimeRE = regexp.MustCompile(`"analysis_time_ns":\s*-?[0-9]+`)

// maskReport zeroes stats.analysis_time_ns in a serialized report. The
// field must occur exactly once; anything else means the bytes are not
// a single report.
func maskReport(raw []byte) ([]byte, error) {
	locs := analysisTimeRE.FindAllIndex(raw, -1)
	if len(locs) != 1 {
		return nil, fmt.Errorf("report has %d analysis_time_ns fields, want 1", len(locs))
	}
	out := make([]byte, 0, len(raw))
	out = append(out, raw[:locs[0][0]]...)
	out = append(out, `"analysis_time_ns":0`...)
	return append(out, raw[locs[0][1]:]...), nil
}

// canonical masks a serialized report and brings it to one spelling:
// compact, with HTML-escaped strings. WriteJSON output (indented) and
// the report a remote-attach completion embeds (compacted by
// encoding/json) then compare byte for byte.
func canonical(raw []byte) ([]byte, error) {
	masked, err := maskReport(raw)
	if err != nil {
		return nil, err
	}
	var compact, out bytes.Buffer
	if err := json.Compact(&compact, masked); err != nil {
		return nil, fmt.Errorf("report is not JSON: %w", err)
	}
	json.HTMLEscape(&out, compact.Bytes())
	return out.Bytes(), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// refStats are the exact counts of a reference report. Every checked
// report equals its reference byte for byte, so they hold for it too.
type refStats struct {
	Records, Flushes, Launches uint64
	Combines                   uint64
	JSONBytes                  int
}

// gate checks every report the benchmark produces: its canonical form
// must hash to the checked-in digest and equal the reference built in
// set-up by an in-process one-shot run of the same program.
type gate struct {
	digests map[string]string
	refs    map[string][]byte
	stats   map[string]refStats
}

func newGate(digests map[string]string) *gate {
	return &gate{digests: digests, refs: map[string][]byte{}, stats: map[string]refStats{}}
}

// loadDigests parses the checked-in digest table.
func loadDigests() (map[string]map[string]string, error) {
	d := map[string]map[string]string{}
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// addReference admits program's one-shot report as the reference every
// later report of it must equal. The reference itself must carry the
// program's Table 1 patterns and match the checked-in digest; a nil
// digest table (digest regeneration) skips the digest comparison.
func (g *gate) addReference(program string, raw []byte, expected []vpattern.Kind, st refStats) error {
	rep, err := profile.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("%s reference: %w", program, err)
	}
	got := rep.PatternSet()
	for _, k := range expected {
		if !got[k.String()] {
			return fmt.Errorf("%s reference: Table 1 pattern %q missing (report has %v)", program, k, sortedKeys(got))
		}
	}
	c, err := canonical(raw)
	if err != nil {
		return fmt.Errorf("%s reference: %w", program, err)
	}
	if g.digests != nil {
		if want, ok := g.digests[program]; !ok {
			return fmt.Errorf("%s: no checked-in digest", program)
		} else if d := digest(c); d != want {
			return fmt.Errorf("%s reference: digest %s, checked-in %s", program, d, want)
		}
	}
	st.JSONBytes = len(raw)
	st.Records = uint64(rep.Stats.AccessRecords)
	st.Flushes = uint64(rep.Stats.BufferFlushes)
	st.Launches = uint64(rep.Stats.LaunchesProfiled)
	g.refs[program] = c
	g.stats[program] = st
	return nil
}

// check verifies one report of program. Its errors leave naming the
// program to the caller.
func (g *gate) check(program string, raw []byte) error {
	ref, ok := g.refs[program]
	if !ok {
		return errors.New("no reference report")
	}
	c, err := canonical(raw)
	if err != nil {
		return err
	}
	if d := digest(c); g.digests != nil && d != g.digests[program] {
		return fmt.Errorf("report digest %s, checked-in %s", d, g.digests[program])
	}
	if !bytes.Equal(c, ref) {
		return errors.New("report differs from the in-process reference")
	}
	return nil
}

// digestTable lists the canonical digest of every reference.
func (g *gate) digestTable() map[string]string {
	out := map[string]string{}
	for p, c := range g.refs {
		out[p] = digest(c)
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

package expgrid

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"valueexpert/internal/capsule"
)

var updateCorpus = flag.Bool("update-corpus", false, "regenerate the capsule corpus and its recorded reports")

// corpusDir is the checked-in corpus the grid's corpus cells replay.
const corpusDir = "../../testdata/corpus"

// TestCorpusCapsulesByteIdentity is the corpus-rot gate: every
// checked-in capsule must still reprofile byte-identical to its recorded
// report, so an engine change that silently altered what the corpus
// cells measure fails go test instead of skewing the perf gate.
func TestCorpusCapsulesByteIdentity(t *testing.T) {
	if *updateCorpus {
		paths, err := BuildCorpus(corpusDir)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %d corpus capsules", len(paths))
	}
	files, err := CorpusFiles(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("corpus has %d capsules, want the checked-in >= 2 (regenerate with -update-corpus)", len(files))
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			if err := VerifyCapsule(f); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCorpusReplaySettingIdentity: replaying a corpus capsule at a
// pipelined setting yields the same report bytes as the synchronous
// replay — the engine's any-setting byte-identity holds for corpus
// cells, so the grid's workers axis changes only the timing, never the
// work.
func TestCorpusReplaySettingIdentity(t *testing.T) {
	files, err := CorpusFiles(corpusDir)
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	report := func(workers, depth int) []byte {
		cfg := CorpusConfig()
		cfg.AnalysisWorkers = workers
		cfg.PipelineDepth = depth
		rep, _, err := capsule.Reprofile(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if sync, piped := report(0, 0), report(4, 3); !bytes.Equal(sync, piped) {
		t.Fatal("corpus replay differs between workers=0 and workers=4/depth=3")
	}
}

// TestMeasureCorpusCell: a real corpus measurement runs end to end and
// reports the fixed record volume.
func TestMeasureCorpusCell(t *testing.T) {
	c := Cell{
		Workload: WorkloadSpec{Name: "corpus", Corpus: corpusDir},
		Setting:  Setting{Workers: 0, Depth: 0},
	}
	s, err := MeasureCell(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.WallMS <= 0 {
		t.Fatalf("corpus wall time %v", s.WallMS)
	}
	if s.Records == 0 {
		t.Fatal("corpus cell reports zero access records")
	}
	s2, err := MeasureCell(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Records != s2.Records {
		t.Fatalf("corpus record volume varies between repeats: %d vs %d", s.Records, s2.Records)
	}
}

// TestMeasureCellBreakdown: the real measurement fills the analysis
// breakdown and flush count from telemetry for both cell kinds, and a
// live cell's analysis time fits inside its wall time.
func TestMeasureCellBreakdown(t *testing.T) {
	for _, w := range []WorkloadSpec{
		{Name: "Darknet", Scale: 64},
		{Name: "corpus", Corpus: corpusDir},
	} {
		c := Cell{Workload: w, Setting: Setting{Workers: 2, Depth: 2}}
		s, err := MeasureCell(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		if s.CompactMS <= 0 || s.Flushes == 0 {
			t.Errorf("%s: compact %.3f ms, %d flushes; want both > 0", c.Key(), s.CompactMS, s.Flushes)
		}
		if s.AnalysisMS > s.WallMS {
			t.Errorf("%s: analysis %.3f ms exceeds wall %.3f ms", c.Key(), s.AnalysisMS, s.WallMS)
		}
	}
}

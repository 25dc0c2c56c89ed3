package rl

import (
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/workloads"
)

// The golden digests pin training end to end at the benchmark's agent
// shape (175 hidden units, minibatches of 16 every 16 decisions, one pass
// over a 10k-access prefix on a 256×16 cache). Each cell hashes the
// online network's full training state — weights, both Adam moments and
// the step count, as SaveFull writes them — and records the epoch's mean
// loss bits, decision count and minibatch count. The NN kernels promise
// bit-identical arithmetic, so any kernel change that moves a digest has
// changed training, not just its speed; the table is never re-recorded
// for a speed-only change.

// goldenTrainCell is one pinned training run.
type goldenTrainCell struct {
	state     uint64 // FNV-64a of Network().SaveFull
	loss      uint64 // math.Float64bits of the mean minibatch loss
	decisions uint64
	batches   uint64
}

const goldenTrainLen = 10_000

var goldenTrainCfg = cache.Config{Sets: 256, Ways: 16, LineSize: 64}

// goldenTrainOptions is perfbench's llc agent with the given discount
// and minibatch size. A cell with gamma > 0 and a batch that is not a
// multiple of 4 drives the target network's ForwardBatch and the ragged
// row tails of every batched kernel.
func goldenTrainOptions(gamma float64, batch int) TrainOptions {
	o := DefaultTrainOptions()
	o.Agent.Hidden = 175
	o.Agent.TrainEvery = 16
	o.Agent.BatchSize = batch
	o.Agent.Gamma = gamma
	o.Epochs = 1
	return o
}

func runGoldenTrain(t *testing.T, bench string, gamma float64, batch int) goldenTrainCell {
	t.Helper()
	spec, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	accs := workloads.LLCAccesses(spec, goldenTrainLen)
	tr := NewTrainer(goldenTrainCfg, accs, goldenTrainOptions(gamma, batch))
	tr.Run()
	agent := tr.Finish()
	tel := agent.TakeTelemetry()
	h := fnv.New64a()
	if err := agent.Network().SaveFull(h); err != nil {
		t.Fatal(err)
	}
	return goldenTrainCell{
		state:     h.Sum64(),
		loss:      math.Float64bits(tel.Loss),
		decisions: tel.Decisions,
		batches:   tel.Batches,
	}
}

// TestGoldenTrainDigests holds the trained network state and telemetry of
// every cell to the recorded digests.
func TestGoldenTrainDigests(t *testing.T) {
	cells := []struct {
		key   string
		bench string
		gamma float64
		batch int
		want  goldenTrainCell
	}{
		{"429.mcf/gamma0", "429.mcf", 0, 16, goldenTrainCell{0xfd5cac5cf872d77a, 0x3fc7c60949e631f7, 5504, 328}},
		{"483.xalancbmk/gamma0", "483.xalancbmk", 0, 16, goldenTrainCell{0x4415f748464460af, 0x3fd8479fc3916c90, 2562, 144}},
		{"429.mcf/gamma0.9/batch15", "429.mcf", 0.9, 15, goldenTrainCell{0x18768957f5c2810c, 0x3fe16085894196b7, 5506, 328}},
	}
	for _, c := range cells {
		got := runGoldenTrain(t, c.bench, c.gamma, c.batch)
		if got != c.want {
			t.Errorf("%s: digest moved\n\t{%#x, %#x, %d, %d}",
				c.key, got.state, got.loss, got.decisions, got.batches)
		}
	}
}

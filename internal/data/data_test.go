package data

import (
	"math/rand"
	"testing"

	"fmore/internal/ml"
)

func TestGenerateTaskShapes(t *testing.T) {
	cases := []struct {
		kind    TaskKind
		wantDim int
		isImage bool
	}{
		{MNISTO, 1 * ImageSize * ImageSize, true},
		{MNISTF, 1 * ImageSize * ImageSize, true},
		{CIFAR10, 3 * ImageSize * ImageSize, true},
		{HPNews, 0, false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.kind.String(), func(t *testing.T) {
			corpus, err := GenerateTask(c.kind, 200, 100, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(corpus.Train) != 200 || len(corpus.Test) != 100 {
				t.Fatalf("sizes %d/%d, want 200/100", len(corpus.Train), len(corpus.Test))
			}
			if corpus.Classes != NumClasses {
				t.Errorf("Classes = %d, want %d", corpus.Classes, NumClasses)
			}
			if corpus.FeatureDim != c.wantDim {
				t.Errorf("FeatureDim = %d, want %d", corpus.FeatureDim, c.wantDim)
			}
			if c.kind.IsImage() != c.isImage {
				t.Errorf("IsImage = %v, want %v", c.kind.IsImage(), c.isImage)
			}
			labels := map[int]int{}
			for _, s := range corpus.Train {
				if c.isImage {
					if len(s.Features) != c.wantDim {
						t.Fatalf("feature len %d, want %d", len(s.Features), c.wantDim)
					}
				} else {
					if len(s.Tokens) != TextSeqLen {
						t.Fatalf("token len %d, want %d", len(s.Tokens), TextSeqLen)
					}
					for _, tok := range s.Tokens {
						if tok < 0 || tok >= TextVocab {
							t.Fatalf("token %d outside vocab", tok)
						}
					}
				}
				if s.Label < 0 || s.Label >= NumClasses {
					t.Fatalf("label %d outside range", s.Label)
				}
				labels[s.Label]++
			}
			if len(labels) != NumClasses {
				t.Errorf("train set covers %d classes, want %d", len(labels), NumClasses)
			}
		})
	}
}

func TestGenerateTaskErrors(t *testing.T) {
	if _, err := GenerateTask(MNISTO, 5, 100, 1); err == nil {
		t.Error("tiny train set: want error")
	}
	if _, err := GenerateTask(TaskKind(99), 100, 100, 1); err == nil {
		t.Error("unknown kind: want error")
	}
}

func TestGenerateTaskDeterministic(t *testing.T) {
	a, err := GenerateTask(CIFAR10, 50, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTask(CIFAR10, 50, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Train {
		if a.Train[i].Label != b.Train[i].Label {
			t.Fatal("same seed produced different labels")
		}
		for d := range a.Train[i].Features {
			if a.Train[i].Features[d] != b.Train[i].Features[d] {
				t.Fatal("same seed produced different features")
			}
		}
	}
}

// TestDifficultyOrdering trains the same small model on each image tier and
// checks the paper's ordering: MNIST-O easiest, CIFAR-10 hardest.
func TestDifficultyOrdering(t *testing.T) {
	accOf := func(kind TaskKind) float64 {
		corpus, err := GenerateTask(kind, 400, 200, 11)
		if err != nil {
			t.Fatal(err)
		}
		ch := 1
		if kind == CIFAR10 {
			ch = 3
		}
		m, err := ml.NewImageCNN(ml.ImageModelConfig{
			Channels: ch, Height: ImageSize, Width: ImageSize, Classes: NumClasses,
			ConvChannels: []int{6}, Hidden: 24, DropoutRate: 0, Momentum: 0.9,
		}, rand.New(rand.NewSource(13)))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(14))
		for epoch := 0; epoch < 4; epoch++ {
			if _, err := m.TrainEpoch(corpus.Train, 16, 0.02, rng); err != nil {
				t.Fatal(err)
			}
		}
		_, acc, err := m.Evaluate(corpus.Test)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	easy, mid, hard := accOf(MNISTO), accOf(MNISTF), accOf(CIFAR10)
	t.Logf("accuracy after 4 epochs: mnist-o=%.3f mnist-f=%.3f cifar=%.3f", easy, mid, hard)
	if easy < mid-0.05 {
		t.Errorf("MNIST-O (%.3f) should be no harder than MNIST-F (%.3f)", easy, mid)
	}
	if mid < hard-0.05 {
		t.Errorf("MNIST-F (%.3f) should be no harder than CIFAR-10 (%.3f)", mid, hard)
	}
	if easy < 0.6 {
		t.Errorf("MNIST-O accuracy %.3f too low; generator may be broken", easy)
	}
}

func TestPartitionHeterogeneous(t *testing.T) {
	corpus, err := GenerateTask(MNISTF, 600, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	const nodes, minSize, maxSize = 25, 20, 120
	p, err := PartitionHeterogeneous(corpus.Train, NumClasses, nodes, minSize, maxSize, 2, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	sawSmall, sawLarge := false, false
	for i := 0; i < nodes; i++ {
		size := p.NodeSize(i)
		if size < minSize || size > maxSize {
			t.Errorf("node %d size %d outside [%d, %d]", i, size, minSize, maxSize)
		}
		if size < minSize+(maxSize-minSize)/4 {
			sawSmall = true
		}
		if size > maxSize-(maxSize-minSize)/4 {
			sawLarge = true
		}
		if prop := p.CategoryProportion(i); prop <= 0 || prop > 1 {
			t.Errorf("node %d category proportion %v outside (0, 1]", i, prop)
		}
	}
	if !sawSmall || !sawLarge {
		t.Error("heterogeneous partition should produce a wide size spread")
	}
}

func TestPartitionErrors(t *testing.T) {
	corpus, err := GenerateTask(MNISTO, 100, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := PartitionHeterogeneous(corpus.Train, NumClasses, 0, 10, 20, 1, rng); err == nil {
		t.Error("zero nodes: want error")
	}
	if _, err := PartitionHeterogeneous(nil, NumClasses, 5, 10, 20, 1, rng); err == nil {
		t.Error("no samples: want error")
	}
	if _, err := PartitionHeterogeneous(corpus.Train, NumClasses, 5, 10, 5, 1, rng); err == nil {
		t.Error("maxSize < minSize: want error")
	}
	if _, err := PartitionHeterogeneous(corpus.Train, NumClasses, 5, 10, 20, 99, rng); err == nil {
		t.Error("minClasses > classes: want error")
	}
	bad := []ml.Sample{{Features: []float64{1}, Label: 99}}
	if _, err := PartitionHeterogeneous(bad, NumClasses, 5, 1, 2, 1, rng); err == nil {
		t.Error("out-of-range label: want error")
	}
}

func TestTaskKindString(t *testing.T) {
	if MNISTO.String() != "mnist-o" || HPNews.String() != "hpnews" {
		t.Error("TaskKind.String mismatch")
	}
	if TaskKind(42).String() == "" {
		t.Error("unknown kind should still format")
	}
}

func TestParseTaskInvertsString(t *testing.T) {
	for _, kind := range []TaskKind{MNISTO, MNISTF, CIFAR10, HPNews} {
		got, err := ParseTask(kind.String())
		if err != nil || got != kind {
			t.Errorf("ParseTask(%q) = %v, %v", kind.String(), got, err)
		}
	}
	if got, err := ParseTask("cifar"); err != nil || got != CIFAR10 {
		t.Errorf("ParseTask(cifar) = %v, %v", got, err)
	}
	if _, err := ParseTask("imagenet"); err == nil {
		t.Error("unknown task: want error")
	}
}

func TestNewModelPerTask(t *testing.T) {
	for _, kind := range []TaskKind{MNISTO, MNISTF, CIFAR10, HPNews} {
		m, err := NewModel(kind, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Errorf("%v: %v", kind, err)
			continue
		}
		if m.NumParams() == 0 {
			t.Errorf("%v: zero parameters", kind)
		}
	}
	if _, err := NewModel(TaskKind(99), rand.New(rand.NewSource(42))); err == nil {
		t.Error("unknown task: want error")
	}
}

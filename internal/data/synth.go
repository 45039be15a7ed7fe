// Package data provides the dataset substrate for the FMore reproduction.
//
// The paper evaluates on MNIST, Fashion-MNIST, CIFAR-10 and the HuffPost
// news-category corpus. None of those are shippable in an offline,
// stdlib-only module, so this package generates synthetic stand-ins with the
// same task shape (10-class image classification at three difficulty tiers,
// plus a 10-class token-sequence task) and the same difficulty ordering:
// MNIST-O < MNIST-F < CIFAR-10, with HPNews as the text task. Difficulty is
// controlled by prototype similarity, noise level, and random translations.
//
// It also implements the heterogeneous partitioning of training data across
// edge nodes, which produces exactly the two resource dimensions the paper's
// simulator bids with: data size q₁ and data-category proportion q₂.
package data

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"fmore/internal/ml"
)

// TaskKind identifies one of the paper's four workloads.
type TaskKind int

const (
	// MNISTO stands in for MNIST: well-separated digit-like prototypes.
	MNISTO TaskKind = iota + 1
	// MNISTF stands in for Fashion-MNIST: closer prototypes, more noise.
	MNISTF
	// CIFAR10 stands in for CIFAR-10: 3-channel, translated, noisy.
	CIFAR10
	// HPNews stands in for the HuffPost headlines corpus: 10-topic token
	// sequences.
	HPNews
)

// String implements fmt.Stringer.
func (k TaskKind) String() string {
	switch k {
	case MNISTO:
		return "mnist-o"
	case MNISTF:
		return "mnist-f"
	case CIFAR10:
		return "cifar-10"
	case HPNews:
		return "hpnews"
	default:
		return fmt.Sprintf("TaskKind(%d)", int(k))
	}
}

// IsImage reports whether the task uses image features (vs token sequences).
func (k TaskKind) IsImage() bool { return k != HPNews }

// ParseTask is the inverse of TaskKind.String, for command-line flags;
// "cifar" is accepted as shorthand for "cifar-10".
func ParseTask(s string) (TaskKind, error) {
	switch s {
	case "mnist-o":
		return MNISTO, nil
	case "mnist-f":
		return MNISTF, nil
	case "cifar-10", "cifar":
		return CIFAR10, nil
	case "hpnews":
		return HPNews, nil
	default:
		return 0, fmt.Errorf("data: unknown task %q (mnist-o, mnist-f, cifar-10, hpnews)", s)
	}
}

// NewModel constructs the task's classifier with the paper's architecture
// shape at reduced width.
func NewModel(kind TaskKind, rng *rand.Rand) (ml.Classifier, error) {
	switch kind {
	case MNISTO, MNISTF:
		return ml.NewImageCNN(ml.MNISTCNNConfig(ImageSize, ImageSize), rng)
	case CIFAR10:
		return ml.NewImageCNN(ml.CIFARCNNConfig(ImageSize, ImageSize), rng)
	case HPNews:
		return ml.NewLSTMClassifier(ml.LSTMConfig{
			Vocab: TextVocab, Embed: 10, Hidden: 20,
			Classes: NumClasses, Momentum: 0.9,
		}, rng)
	default:
		return nil, fmt.Errorf("data: unknown task %v", kind)
	}
}

// Task dimensions shared by generators and model constructors.
const (
	// ImageSize is the height and width of synthetic images.
	ImageSize = 12
	// NumClasses is the class count of every task, matching the paper.
	NumClasses = 10
	// TextVocab is the token id space of the synthetic news corpus.
	TextVocab = 48
	// TextSeqLen is the length of each synthetic headline.
	TextSeqLen = 10
)

// Corpus is a generated dataset split into train and test sets.
type Corpus struct {
	Kind  TaskKind
	Train []ml.Sample
	Test  []ml.Sample
	// Classes is the label arity (always NumClasses for built-in tasks).
	Classes int
	// FeatureDim is the per-sample feature length for image tasks (0 for
	// text).
	FeatureDim int
}

// imageTaskSpec are the difficulty knobs per tier.
type imageTaskSpec struct {
	channels    int
	noise       float64 // additive Gaussian noise σ
	shared      float64 // fraction of a class-agnostic shared pattern
	maxShift    int     // random translation in pixels
	protoSmooth int     // box-blur passes over prototypes (spatial structure)
}

func specFor(kind TaskKind) (imageTaskSpec, error) {
	switch kind {
	case MNISTO:
		return imageTaskSpec{channels: 1, noise: 0.85, shared: 0.35, maxShift: 0, protoSmooth: 2}, nil
	case MNISTF:
		return imageTaskSpec{channels: 1, noise: 0.95, shared: 0.45, maxShift: 1, protoSmooth: 2}, nil
	case CIFAR10:
		return imageTaskSpec{channels: 3, noise: 1.0, shared: 0.5, maxShift: 2, protoSmooth: 1}, nil
	default:
		return imageTaskSpec{}, fmt.Errorf("data: %v is not an image task", kind)
	}
}

// GenerateTask produces the synthetic corpus for the given workload.
func GenerateTask(kind TaskKind, trainN, testN int, seed int64) (*Corpus, error) {
	if trainN < NumClasses || testN < NumClasses {
		return nil, fmt.Errorf("data: need at least %d train and test samples, got %d/%d", NumClasses, trainN, testN)
	}
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case MNISTO, MNISTF, CIFAR10:
		return generateImages(kind, trainN, testN, rng)
	case HPNews:
		return generateText(trainN, testN, rng)
	default:
		return nil, fmt.Errorf("data: unknown task %v", kind)
	}
}

func generateImages(kind TaskKind, trainN, testN int, rng *rand.Rand) (*Corpus, error) {
	spec, err := specFor(kind)
	if err != nil {
		return nil, err
	}
	dim := spec.channels * ImageSize * ImageSize
	// Class prototypes: smooth random fields, partially blended with one
	// shared background field so classes overlap (raising difficulty).
	shared := smoothField(dim, spec.protoSmooth, spec.channels, rng)
	protos := make([][]float64, NumClasses)
	for c := range protos {
		own := smoothField(dim, spec.protoSmooth, spec.channels, rng)
		p := make([]float64, dim)
		for d := range p {
			p[d] = (1-spec.shared)*own[d] + spec.shared*shared[d]
		}
		protos[c] = p
	}
	mk := func(n int) []ml.Sample {
		out := make([]ml.Sample, n)
		for i := range out {
			c := i % NumClasses
			x := make([]float64, dim)
			src := protos[c]
			if spec.maxShift > 0 {
				src = shift(src, spec.channels, rng.Intn(2*spec.maxShift+1)-spec.maxShift, rng.Intn(2*spec.maxShift+1)-spec.maxShift)
			}
			for d := range x {
				x[d] = src[d] + rng.NormFloat64()*spec.noise
			}
			out[i] = ml.Sample{Features: x, Label: c}
		}
		rng.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
		return out
	}
	return &Corpus{
		Kind:       kind,
		Train:      mk(trainN),
		Test:       mk(testN),
		Classes:    NumClasses,
		FeatureDim: dim,
	}, nil
}

// smoothField samples a zero-mean random field with spatial correlation, per
// channel, by box-blurring white noise.
func smoothField(dim, passes, channels int, rng *rand.Rand) []float64 {
	f := make([]float64, dim)
	for d := range f {
		f[d] = rng.NormFloat64()
	}
	per := ImageSize * ImageSize
	for p := 0; p < passes; p++ {
		for c := 0; c < channels; c++ {
			blurChannel(f[c*per : (c+1)*per])
		}
	}
	// Renormalize to unit variance so difficulty knobs stay comparable.
	var sumSq float64
	for _, v := range f {
		sumSq += v * v
	}
	if sumSq > 0 {
		scale := math.Sqrt(float64(dim) / sumSq)
		for d := range f {
			f[d] *= scale
		}
	}
	return f
}

// blurChannel applies one 3×3 box blur in place over an ImageSize² plane.
func blurChannel(p []float64) {
	out := make([]float64, len(p))
	for h := 0; h < ImageSize; h++ {
		for w := 0; w < ImageSize; w++ {
			sum, cnt := 0.0, 0
			for dh := -1; dh <= 1; dh++ {
				for dw := -1; dw <= 1; dw++ {
					hh, ww := h+dh, w+dw
					if hh < 0 || hh >= ImageSize || ww < 0 || ww >= ImageSize {
						continue
					}
					sum += p[hh*ImageSize+ww]
					cnt++
				}
			}
			out[h*ImageSize+w] = sum / float64(cnt)
		}
	}
	copy(p, out)
}

// shift translates each channel plane by (dh, dw), zero-filling exposed
// borders.
func shift(src []float64, channels, dh, dw int) []float64 {
	out := make([]float64, len(src))
	per := ImageSize * ImageSize
	for c := 0; c < channels; c++ {
		for h := 0; h < ImageSize; h++ {
			for w := 0; w < ImageSize; w++ {
				sh, sw := h-dh, w-dw
				if sh < 0 || sh >= ImageSize || sw < 0 || sw >= ImageSize {
					continue
				}
				out[c*per+h*ImageSize+w] = src[c*per+sh*ImageSize+sw]
			}
		}
	}
	return out
}

// generateText builds the HPNews stand-in: each class (topic) has a
// characteristic token distribution; headlines mix topic tokens with common
// filler tokens.
func generateText(trainN, testN int, rng *rand.Rand) (*Corpus, error) {
	// Each topic owns a band of tokens; fillers are drawn from the top of
	// the vocab range and shared by all topics.
	const topicTokens = 3
	const fillerStart = NumClasses * topicTokens // 30..47 are fillers
	if fillerStart >= TextVocab {
		return nil, errors.New("data: vocabulary too small for topic bands")
	}
	mk := func(n int) []ml.Sample {
		out := make([]ml.Sample, n)
		for i := range out {
			c := i % NumClasses
			toks := make([]int, TextSeqLen)
			for j := range toks {
				switch {
				case rng.Float64() < 0.42:
					toks[j] = c*topicTokens + rng.Intn(topicTokens)
				case rng.Float64() < 0.45:
					// Confuser: token from a random other topic.
					other := rng.Intn(NumClasses)
					toks[j] = other*topicTokens + rng.Intn(topicTokens)
				default:
					toks[j] = fillerStart + rng.Intn(TextVocab-fillerStart)
				}
			}
			out[i] = ml.Sample{Tokens: toks, Label: c}
		}
		rng.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
		return out
	}
	return &Corpus{
		Kind:    HPNews,
		Train:   mk(trainN),
		Test:    mk(testN),
		Classes: NumClasses,
	}, nil
}

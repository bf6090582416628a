package main

import (
	"math"
	"math/rand"
)

// zipfS is the Zipf exponent of the serve key stream: rank k has
// weight (1+k)^-zipfS.
const zipfS = 1.1

// zipfBlock is the length of one period of the stream.
const zipfBlock = 400

// blockOrderSeed fixes the order of the keys within the period.
const blockOrderSeed = 1

// keyStream is a seeded Zipf stream over ranks [0, n). It repeats one
// period of zipfBlock keys that holds every rank in its Zipf share (at
// least once), in a fixed shuffled order; the seed picks where in the
// period the stream starts. Once the server's LRU cache has warmed,
// every period meets the same cache state, so the count and mix of hits
// and misses per period — which set the run's cost — are the same at
// every seed: seeds change the phase, not the mix. With independent
// draws, or a fresh shuffle per period, they wander from seed to seed
// by several percent over a run.
type keyStream struct {
	block []int
	pos   int
}

func newKeyStream(seed int64, n int) *keyStream {
	var total float64
	for k := 0; k < n; k++ {
		total += math.Pow(float64(1+k), -zipfS)
	}
	var block []int
	for k := 0; k < n; k++ {
		c := max(1, int(math.Round(zipfBlock*math.Pow(float64(1+k), -zipfS)/total)))
		for i := 0; i < c; i++ {
			block = append(block, k)
		}
	}
	rand.New(rand.NewSource(blockOrderSeed)).Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	return &keyStream{block: block, pos: rand.New(rand.NewSource(seed)).Intn(len(block))}
}

func (k *keyStream) next() int {
	key := k.block[k.pos]
	k.pos = (k.pos + 1) % len(k.block)
	return key
}

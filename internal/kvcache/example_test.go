package kvcache_test

import (
	"fmt"

	"github.com/medusa-repro/medusa/internal/kvcache"
)

// A sequence grows token by token; blocks are allocated lazily at
// 16-token granularity and recycled on release. The caller owns the
// sequence's handle; the manager owns only the free list.
func ExampleManager() {
	m := kvcache.NewManager(8)
	var seq kvcache.Seq
	m.Append(&seq, 20) // prompt: 20 tokens → 2 blocks
	fmt.Println("blocks after prompt:", len(seq.Table()))
	for i := 0; i < 12; i++ { // decode 12 more tokens: fits block 2
		m.Append(&seq, 1)
	}
	fmt.Println("blocks after decode:", len(seq.Table()), "tokens:", seq.Len())
	m.Release(&seq)
	fmt.Println("free after release:", m.NumFreeBlocks())
	// Output:
	// blocks after prompt: 2
	// blocks after decode: 2 tokens: 32
	// free after release: 8
}

func ExampleBlockBytes() {
	// One fp16 block of a 4096-wide model: 16 tokens × 4096 × 2 bytes,
	// for both K and V.
	fmt.Println(kvcache.BlockBytes(4096, 2))
	// Output:
	// 262144
}

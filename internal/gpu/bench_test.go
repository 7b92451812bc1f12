package gpu

import (
	"testing"
)

func BenchmarkMallocFree(b *testing.B) {
	d := NewDevice(A100(1, CostOnly))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := d.Malloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Free(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindBufferInterior(b *testing.B) {
	d := NewDevice(A100(2, CostOnly))
	var addrs []uint64
	for i := 0; i < 1024; i++ {
		a, err := d.Malloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := d.FindBuffer(addrs[i%len(addrs)] + 128); !ok {
			b.Fatal("miss")
		}
	}
}

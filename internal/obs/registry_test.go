package obs

import (
	"sync"
	"testing"
)

// TestCounterConcurrentAdds: the counter is lock-free but must stay
// exact under concurrent use (run under -race by make test-race).
func TestCounterConcurrentAdds(t *testing.T) {
	const workers, adds = 8, 1000
	r := NewRegistry()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				r.Counter("hits").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != workers*adds {
		t.Fatalf("counter = %d after %d concurrent increments", got, workers*adds)
	}
}

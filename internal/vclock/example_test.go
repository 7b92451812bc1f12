package vclock_test

import (
	"fmt"
	"time"

	"github.com/medusa-repro/medusa/internal/vclock"
)

func ExampleClock_Span() {
	c := vclock.New()
	d := c.Span(func() {
		c.Advance(300 * time.Millisecond)
		c.Advance(600 * time.Millisecond)
	})
	fmt.Println(d)
	// Output:
	// 900ms
}

// Command a is the testonly check's fixture.
package main

import "fmt"

// Used is called from main, so it is referenced.
func Used() int { return 1 }

// Unused is referenced by nothing.
func Unused() int { return 2 }

// Recursive refers only to itself.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Kept is kept by an allow directive.
//
//medusalint:allow testonly(fixture keep)
func Kept() {}

// Misdirected's directive names another check, so it is flagged.
//
//medusalint:allow wallclock(not this check)
func Misdirected() {}

// Shape is an interface in scope.
type Shape interface{ Area() float64 }

// Square satisfies Shape, so its Area is reached through the interface.
type Square struct{ side float64 }

// Area is not flagged: Square satisfies Shape.
func (s *Square) Area() float64 { return s.side * s.side }

// Perimeter is flagged: no interface in scope declares it.
func (s *Square) Perimeter() float64 { return 4 * s.side }

// String is reached by fmt through reflection.
func (s *Square) String() string { return fmt.Sprint(s.side) }

// Box's Area has another signature than Shape's, so the interface does
// not cover it.
type Box struct{}

// Area is flagged: Box does not satisfy Shape.
func (Box) Area() int { return 0 }

func main() {
	var s Shape = &Square{side: float64(Used())}
	fmt.Println(s)
}

func init() {}

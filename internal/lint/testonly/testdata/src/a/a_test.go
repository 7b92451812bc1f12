package main

import "testing"

// A reference from a test file does not count.
func TestUnused(t *testing.T) { _ = Unused() + Box{}.Area() }

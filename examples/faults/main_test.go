package main

import (
	"bytes"
	"testing"
)

// TestRunIsDeterministic: the fault sets come from a fixed seed, so
// two runs must print the same bytes.
func TestRunIsDeterministic(t *testing.T) {
	var first, second bytes.Buffer
	if err := run(&first); err != nil {
		t.Fatal(err)
	}
	if err := run(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("two runs printed different reports:\n%s\n---\n%s", first.String(), second.String())
	}
}

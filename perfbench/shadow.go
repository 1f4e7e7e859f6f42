package main

import "fmt"

// unknown marks a shadow line whose content the benchmark cannot assert: a
// write to it was refused, so it may or may not have been applied.
const unknown = 0xff

// shadow is one load connection's record of what it last wrote to each
// line. Lines it never wrote hold the device's initial content (ALL-0,
// pcm.Zeros), which is also the zero value here. A connection only
// checks reads against its own shadow, so the lines it reads must be
// lines no other connection writes, or lines every connection writes
// with the same content.
type shadow struct {
	content []uint8
}

func newShadow(lines uint64) *shadow {
	return &shadow{content: make([]uint8, lines)}
}

// wrote records a completed write.
func (s *shadow) wrote(line uint64, content uint8) { s.content[line] = content }

// forget marks a line whose last write may not have been applied.
func (s *shadow) forget(line uint64) { s.content[line] = unknown }

// check compares one read result with the shadow.
func (s *shadow) check(line uint64, got uint8) error {
	want := s.content[line]
	if want == unknown || want == got {
		return nil
	}
	return fmt.Errorf("line %d read content %d, last written %d", line, got, want)
}

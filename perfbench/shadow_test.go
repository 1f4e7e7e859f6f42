package main

import (
	"testing"

	"securityrbsg/internal/pcm"
)

func TestShadowChecksLastWrite(t *testing.T) {
	s := newShadow(8)
	if err := s.check(3, uint8(pcm.Zeros)); err != nil {
		t.Fatalf("never-written line reading ALL-0: %v", err)
	}
	if err := s.check(3, uint8(pcm.Ones)); err == nil {
		t.Fatal("never-written line reading ALL-1 passed")
	}
	s.wrote(3, uint8(pcm.Ones))
	s.wrote(3, uint8(pcm.Mixed))
	if err := s.check(3, uint8(pcm.Mixed)); err != nil {
		t.Fatalf("read of the last write: %v", err)
	}
	if err := s.check(3, uint8(pcm.Ones)); err == nil {
		t.Fatal("read of an overwritten value passed")
	}
}

func TestShadowForgetAcceptsAnything(t *testing.T) {
	s := newShadow(4)
	s.wrote(1, uint8(pcm.Ones))
	s.forget(1)
	for _, c := range []pcm.Content{pcm.Zeros, pcm.Ones, pcm.Mixed} {
		if err := s.check(1, uint8(c)); err != nil {
			t.Fatalf("forgotten line reading %v: %v", c, err)
		}
	}
	s.wrote(1, uint8(pcm.Zeros))
	if err := s.check(1, uint8(pcm.Ones)); err == nil {
		t.Fatal("a write after forget did not re-arm the check")
	}
}

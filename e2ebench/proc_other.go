//go:build !linux

package main

import (
	"errors"
	"os/exec"
)

func dieWithParent(*exec.Cmd) {}

// peakRSSMB needs Linux's /proc.
func peakRSSMB(int) (float64, error) {
	return 0, errors.New("peak RSS is read from /proc; the benchmark runs on Linux")
}

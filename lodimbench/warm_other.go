//go:build !linux

package main

// warmArg is the hidden subcommand that runs one keep-warm spinner.
const warmArg = "keep-warm"

// keepWarm does nothing off Linux, which has no SCHED_IDLE.
func keepWarm() (stop func()) { return func() {} }

func spinWarm() int { return 1 }

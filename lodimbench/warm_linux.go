package main

import (
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// warmArg is the hidden subcommand that runs one keep-warm spinner.
const warmArg = "keep-warm"

// schedIdle is Linux's SCHED_IDLE policy: a thread under it runs only
// when no other thread wants its CPU, and any waking thread preempts
// it at once.
const schedIdle = 5

// keepWarm starts one spinner process per CPU under SCHED_IDLE, the
// user-space equivalent of booting with idle=poll: the virtual CPUs
// never halt, so a request that arrives at an idle server is not
// timed on how fast the hypervisor gives a halted virtual CPU back.
// On the 2-vCPU host that defined the benchmark that wake-up set the
// open loop's tail and varied by half from run to run: six interleaved
// pairs of map-search open loops read a p99 of 59–138 ms without the
// spinners and 48–67 ms with them. The spinners take no CPU the
// benchmark wants. stop kills them and waits until each has ended;
// they also die with this process.
func keepWarm() (stop func()) {
	exe, err := os.Executable()
	if err != nil {
		return func() {}
	}
	var cmds []*exec.Cmd
	var pipes []io.Closer
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(exe, warmArg)
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		in, err := cmd.StdinPipe()
		if err != nil {
			break
		}
		if err := cmd.Start(); err != nil {
			in.Close()
			break
		}
		cmds = append(cmds, cmd)
		pipes = append(pipes, in)
	}
	return func() {
		for i, cmd := range cmds {
			pipes[i].Close()
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
}

// spinWarm is a keep-warm spinner's body: it switches its thread to
// SCHED_IDLE and spins until its standard input closes, which happens
// when the benchmark stops it or dies.
func spinWarm() int {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	param := struct{ priority int32 }{0}
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		return 1
	}
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	for {
	}
}

package main

import "syscall"

// childAttr makes the kernel kill a spawned dvrd when the harness dies
// without running its teardown (SIGKILL, panic in a goroutine), so even
// then no fleet is left behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

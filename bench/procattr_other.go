//go:build !linux

package main

import "syscall"

// childAttr: parent-death signals are Linux-only; elsewhere teardown relies
// on stopAll running on every exit path.
func childAttr() *syscall.SysProcAttr { return nil }

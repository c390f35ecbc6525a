package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"
)

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// processCPU returns the CPU time (user plus system, all threads, those
// that exited included) a process has used so far, from /proc/<pid>/stat.
// The kernel scales it to the task clock, which leaves out the time the
// hypervisor stole from the vCPU, so a noisy neighbour inflates it far
// less than it inflates wall time.
func processCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name in field 2 may hold spaces; the fields after it
	// start at its closing parenthesis. utime and stime are fields 14
	// and 15.
	i := bytes.LastIndexByte(b, ')')
	f := bytes.Fields(b[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(string(s), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * clockTick, nil
}

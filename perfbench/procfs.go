package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// statusKB reads one kB field (VmHWM, VmRSS) of /proc/<pid>/status; pid 0
// is this process.
func statusKB(pid int, field string) (int64, error) {
	p := "/proc/self/status"
	if pid != 0 {
		p = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(p)
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s field", p, field)
}

// cpuTime is the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSKB is the peak resident set of a process (VmHWM).
func peakRSSKB(pid int) (int64, error) { return statusKB(pid, "VmHWM") }

// children lists the live child processes of pid by scanning /proc.
func children(pid int) []int {
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	var out []int
	for _, s := range stats {
		b, err := os.ReadFile(s)
		if err != nil {
			continue
		}
		// Fields after the parenthesised command name: state, ppid, ...
		i := bytes.LastIndexByte(b, ')')
		if i < 0 {
			continue
		}
		f := strings.Fields(string(b[i+1:]))
		if len(f) < 2 {
			continue
		}
		if ppid, err := strconv.Atoi(f[1]); err == nil && ppid == pid {
			if c, err := strconv.Atoi(filepath.Base(filepath.Dir(s))); err == nil {
				out = append(out, c)
			}
		}
	}
	return out
}

// rssMonitor samples the resident memory of a process tree (a daemon and
// its worker processes) until stopped, keeping the peak of the sum.
type rssMonitor struct {
	pid  int
	stop chan struct{}
	wg   sync.WaitGroup

	mu   sync.Mutex
	peak int64
}

func startRSSMonitor(pid int, every time.Duration) *rssMonitor {
	m := &rssMonitor{pid: pid, stop: make(chan struct{})}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			m.sample()
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

func (m *rssMonitor) sample() {
	total, err := statusKB(m.pid, "VmRSS")
	if err != nil {
		return
	}
	for _, c := range children(m.pid) {
		if kb, err := statusKB(c, "VmRSS"); err == nil {
			total += kb
		}
	}
	m.mu.Lock()
	m.peak = max(m.peak, total)
	m.mu.Unlock()
}

// Stop ends sampling and returns the peak of the sampled tree sum in kB.
func (m *rssMonitor) Stop() int64 {
	close(m.stop)
	m.wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}

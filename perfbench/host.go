package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// peakRSS reports the process's peak resident set per pass from the
// kernel's high-water mark (VmHWM), so a run can report the median over
// its passes of each pass's peak instead of one process-wide peak that a
// single GC timing decides.
type peakRSS struct{}

// startPeakRSS fails when the high-water mark cannot be read or reset,
// and starts the first pass.
func startPeakRSS() (peakRSS, error) {
	var p peakRSS
	_, err := p.take()
	return p, err
}

// take returns the peak resident set in MiB since the last take and
// resets the mark to the current resident set.
func (peakRSS) take() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	var kb float64
	found := false
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err = strconv.ParseFloat(f[0], 64)
				found = err == nil
			}
			break
		}
	}
	if !found {
		return 0, fmt.Errorf("no VmHWM in /proc/self/status")
	}
	// 5 resets the high-water mark (proc(5), clear_refs).
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, fmt.Errorf("resetting VmHWM: %w", err)
	}
	return kb / 1024, nil
}

// fsTypes names the statfs magic numbers of the filesystems a data
// directory is likely to sit on.
var fsTypes = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlay",
	0x65735546: "fuse",
	0x6969:     "nfs",
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsTypes[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// hostLine is the host context printed with every result. serve-mix
// keeps its data directories under workDir, so that is the file system
// reported.
func hostLine(workload string, seed int64) string {
	return fmt.Sprintf("host workload=%s seed=%d nproc=%d gomaxprocs=%d go=%s datadir_fs=%s",
		workload, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(workDir))
}

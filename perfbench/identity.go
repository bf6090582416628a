package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// cpuLoopWindow is how long cpuLoopRate runs its kernel.
const cpuLoopWindow = 200 * time.Millisecond

// cpuLoopSink keeps the kernel's result alive.
var cpuLoopSink uint64

// cpuLoopBuf is the kernel's sort buffer.
var cpuLoopBuf = make([]uint64, 1<<11)

// cpuLoopRand is the kernel's fixed-seed generator.
var cpuLoopRand = rand.New(rand.NewSource(1))

// cpuLoopRound runs one round of a fixed single-threaded kernel in
// three parts, each like a part of the program: a chain of 2^16
// dependent xorshift steps, which follows the core's clock; a sort of
// 2^11 of the values it made, whose branches and memory traffic also
// slow down when a neighbour shares the core; and 2^13 math/rand draws
// with a branch on each, the soak and storm campaigns' hot path. The
// kernel never changes, so when its rate changes, the host changed
// speed.
func cpuLoopRound(x uint64) uint64 {
	for i := 0; i < 1<<16; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		cpuLoopBuf[i&(1<<11-1)] = x
	}
	slices.Sort(cpuLoopBuf)
	for i := 0; i < 1<<13; i++ {
		if f := cpuLoopRand.Float64(); f < 0.3 {
			x++
		} else if f < 0.5 {
			x ^= uint64(i)
		}
	}
	return x
}

// cpuLoopRate runs the kernel for cpuLoopWindow and returns its rounds
// per second. When two results differ, a matching change in this rate
// points at the host rather than the code.
func cpuLoopRate() float64 {
	x := uint64(88172645463325252)
	rounds := 0
	start := time.Now()
	for time.Since(start) < cpuLoopWindow {
		x = cpuLoopRound(x)
		rounds++
	}
	cpuLoopSink = x
	return float64(rounds) / time.Since(start).Seconds()
}

// speedRounds is the length of one host-speed sample, about 10 ms at
// refLoopRate.
const speedRounds = 25

// refLoopRate is the reference host speed, in kernel rounds per
// second: about the kernel's rate on the 2-vCPU Xeon VM the benchmark
// was sized on. A time measured while the kernel ran at rate r is
// reported as time * r / refLoopRate, the time the same work would take
// on a host of the reference speed.
const refLoopRate = 2500

// refTime scales a time measured while the kernel ran at speed rounds
// per second to the reference host speed.
func refTime(t, speed float64) float64 { return t * speed / refLoopRate }

// hostSpeed runs speedRounds rounds of the kernel and returns its
// rounds per second.
func hostSpeed() float64 {
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < speedRounds; i++ {
		x = cpuLoopRound(x)
	}
	cpuLoopSink = x
	return speedRounds / time.Since(start).Seconds()
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit returns HEAD's hash, or "none" outside a git work tree
// (the tree digest then identifies the code).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// treeDigest hashes the path and content of every Go source and module
// file under root, skipping build output, so two results with the same
// digest measured the same code.
func treeDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && strings.HasPrefix(n, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		io.WriteString(h, filepath.ToSlash(p)+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"github.com/splitbft/splitbft"
	"github.com/splitbft/splitbft/experiments/bench"
)

// stamp is the environment line every run prints before its result.
type stamp struct {
	bench.Env
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Traced       bool   `json:"traced"`
	Nproc        int    `json:"nproc"`
	TransitionNs int64  `json:"transition_ns"`
	WALFS        string `json:"wal_fs"`
	Note         string `json:"note,omitempty"`
}

func printEnv(w workload, seed int64, traced bool, walRoot string) {
	env := bench.CollectEnv()
	if env.GitSHA == "unknown" {
		env.GitSHA = treeHash(".")
	}
	s := stamp{
		Env:          env,
		Workload:     w.name,
		Seed:         seed,
		Traced:       traced,
		Nproc:        runtime.NumCPU(),
		TransitionNs: splitbft.DefaultCostModel().TransitionCost().Nanoseconds(),
		WALFS:        "none",
	}
	if w.durable {
		s.WALFS = fsType(filepath.Dir(walRoot))
		s.Note = "the WAL lives inside the checkout; fsync cost is whatever that filesystem gives, not a device-latency measurement"
	}
	b, _ := json.Marshal(s)
	fmt.Printf("env %s\n", b)
}

// treeHash stands in for the commit hash when the checkout is not a git
// repository: a SHA-256 over the path and contents of every Go source and
// module file under root.
func treeHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

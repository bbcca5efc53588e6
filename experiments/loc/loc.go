// Package loc is a small tokei-style line counter for Go sources, used to
// regenerate Table 2 of the paper (TCB sizes per compartment): it splits
// files into code, comment and blank lines and groups this repository's
// packages into the paper's TCB categories (shared types, per-compartment
// logic, untrusted environment, trusted counter).
package loc

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Counts is a code/comment/blank line tally.
type Counts struct {
	Files    int
	Code     int
	Comments int
	Blanks   int
}

// Total returns all lines.
func (c Counts) Total() int { return c.Code + c.Comments + c.Blanks }

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.Files += other.Files
	c.Code += other.Code
	c.Comments += other.Comments
	c.Blanks += other.Blanks
}

// CountSource tallies one Go source text. It understands line comments,
// block comments (including multi-line), and leaves string-literal edge
// cases approximate — the same fidelity class as tokei's fast path.
func CountSource(src string) Counts {
	c := Counts{Files: 1}
	inBlock := false
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case inBlock:
			c.Comments++
			if idx := strings.Index(trimmed, "*/"); idx >= 0 {
				inBlock = false
				rest := strings.TrimSpace(trimmed[idx+2:])
				if rest != "" {
					// Code after the closing delimiter: count as code
					// instead (the line did real work).
					c.Comments--
					c.Code++
				}
			}
		case trimmed == "":
			c.Blanks++
		case strings.HasPrefix(trimmed, "//"):
			c.Comments++
		case strings.HasPrefix(trimmed, "/*"):
			c.Comments++
			if !strings.Contains(trimmed[2:], "*/") {
				inBlock = true
			}
		default:
			c.Code++
		}
	}
	// Split produces one extra element for the trailing newline; don't
	// count a final empty line as blank.
	if strings.HasSuffix(src, "\n") && c.Blanks > 0 {
		c.Blanks--
	}
	return c
}

// CountFile tallies one file on disk.
func CountFile(path string) (Counts, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Counts{}, fmt.Errorf("loc: %w", err)
	}
	return CountSource(string(data)), nil
}

// CountDir tallies all non-test Go files under root, recursively.
// includeTests controls whether _test.go files are counted.
func CountDir(root string, includeTests bool) (Counts, error) {
	var total Counts
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		if !includeTests && strings.HasSuffix(path, "_test.go") {
			return nil
		}
		c, err := CountFile(path)
		if err != nil {
			return err
		}
		total.Add(c)
		return nil
	})
	return total, err
}

// Component is one row of the Table 2 analysis: a named TCB component and
// the files that make it up.
type Component struct {
	Name  string
	Files []string // paths relative to the repo root
}

// TCBComponents maps this repository onto the paper's Table 2 rows.
//
// "Shared types" are the code linked into every enclave: message
// definitions, codec, crypto, the compartments' durable-state and clock
// code, and the enclave runtime with its attestation. The per-enclave
// logic is each compartment's source file plus the shared compartment
// state; the untrusted environment is the broker, transport, and client
// plumbing; the trusted counter is the hybrid-BFT comparison subsystem.
func TCBComponents() []Component {
	shared := []string{
		"internal/messages/codec.go",
		"internal/messages/types.go",
		"internal/messages/viewchange.go",
		"internal/messages/attest.go",
		"internal/messages/envelope.go",
		"internal/messages/validate.go",
		"internal/crypto/keys.go",
		"internal/crypto/hmac.go",
		"internal/crypto/session.go",
		"internal/core/comstate.go",
		"internal/core/config.go",
		"internal/core/persist.go",
		"internal/core/clock.go",
		"internal/tee/enclave.go",
		"internal/tee/attest.go",
	}
	return []Component{
		{Name: "Preparation Enc.", Files: append([]string{"internal/core/preparation.go"}, shared...)},
		{Name: "Confirmation Enc.", Files: append([]string{"internal/core/confirmation.go"}, shared...)},
		{Name: "Execution Enc.", Files: append([]string{
			"internal/core/execution.go",
			"internal/app/app.go",
			"internal/app/kvs.go",
			"internal/app/blockchain.go",
		}, shared...)},
		{Name: "Untrusted Env.", Files: []string{
			"internal/core/broker.go",
			"internal/core/replica.go",
			"internal/transport/transport.go",
			"internal/transport/simnet.go",
			"internal/transport/tcp.go",
		}},
		{Name: "Trusted Counter", Files: []string{"internal/tee/counter.go"}},
	}
}

// sharedFiles returns the set of files appearing in more than one enclave
// component — the "shared types" column of Table 2.
func sharedFiles(components []Component) map[string]bool {
	seen := make(map[string]int)
	for _, comp := range components {
		if !strings.Contains(comp.Name, "Enc.") {
			continue
		}
		for _, f := range comp.Files {
			seen[f]++
		}
	}
	shared := make(map[string]bool)
	for f, n := range seen {
		if n > 1 {
			shared[f] = true
		}
	}
	return shared
}

// TableRow is one line of the regenerated Table 2.
type TableRow struct {
	Name      string
	SharedLOC int
	LogicLOC  int
	TotalLOC  int
}

// Table2 computes the TCB analysis over the repository rooted at root.
func Table2(root string) ([]TableRow, error) {
	components := TCBComponents()
	shared := sharedFiles(components)
	rows := make([]TableRow, 0, len(components))
	for _, comp := range components {
		var row TableRow
		row.Name = comp.Name
		for _, f := range comp.Files {
			c, err := CountFile(filepath.Join(root, f))
			if err != nil {
				return nil, fmt.Errorf("component %s: %w", comp.Name, err)
			}
			if shared[f] && strings.Contains(comp.Name, "Enc.") {
				row.SharedLOC += c.Code
			} else {
				row.LogicLOC += c.Code
			}
		}
		row.TotalLOC = row.SharedLOC + row.LogicLOC
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable2 renders the analysis in the paper's Table 2 layout.
func FormatTable2(rows []TableRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %12s %8s %10s\n", "Component", "Shared types", "Logic", "Total LOC")
	sb.WriteString(strings.Repeat("-", 54) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-20s %12d %8d %10d\n", r.Name, r.SharedLOC, r.LogicLOC, r.TotalLOC)
	}
	return sb.String()
}

// PackageBreakdown counts every package under root, for the repository
// inventory in the README.
func PackageBreakdown(root string) (map[string]Counts, error) {
	out := make(map[string]Counts)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		pkg := filepath.Dir(rel)
		c, err := CountFile(path)
		if err != nil {
			return err
		}
		cur := out[pkg]
		cur.Add(c)
		out[pkg] = cur
		return nil
	})
	return out, err
}

// SortedPackages returns breakdown keys in deterministic order.
func SortedPackages(breakdown map[string]Counts) []string {
	keys := make([]string, 0, len(breakdown))
	for k := range breakdown {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

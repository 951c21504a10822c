// Package vcs is a minimal content-addressed version control system for
// devUDF project files. The paper (§1) argues that because UDFs live inside
// the database server, "version control systems such as Git cannot be
// easily integrated"; devUDF fixes this by materializing UDFs as files.
// This package makes that claim testable offline: snapshot commits, log,
// checkout, status and line diffs over the UDF workspace, stored through
// the same core.FS abstraction the rest of the system uses.
package vcs

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

const vcsDir = ".udfvcs"

// Repo is a VCS repository rooted at a directory of an FS.
type Repo struct {
	fs   core.FS
	root string
}

// CommitInfo describes one commit, newest first in Log output.
type CommitInfo struct {
	Hash    string
	Parent  string
	Author  string
	Message string
	Seq     int
	Unix    int64
	Files   []string
}

// DiffStatus classifies a path in a diff.
type DiffStatus string

// Diff statuses.
const (
	DiffAdded    DiffStatus = "added"
	DiffRemoved  DiffStatus = "removed"
	DiffModified DiffStatus = "modified"
)

// DiffEntry is one changed path with a unified-style line diff for
// modifications.
type DiffEntry struct {
	Path   string
	Status DiffStatus
	Lines  []string // "+line" / "-line" / " line"
}

func (r *Repo) path(parts ...string) string {
	segs := append([]string{r.root, vcsDir}, parts...)
	joined := ""
	for _, s := range segs {
		if s == "" {
			continue
		}
		if joined != "" {
			joined += "/"
		}
		joined += s
	}
	return joined
}

// Init creates a repository rooted at root.
func Init(fs core.FS, root string) (*Repo, error) {
	r := &Repo{fs: fs, root: root}
	if _, err := fs.ReadFile(r.path("HEAD")); err == nil {
		return nil, core.Errorf(core.KindConstraint, "repository already initialized at %s", root)
	}
	if err := fs.WriteFile(r.path("HEAD"), []byte("")); err != nil {
		return nil, err
	}
	return r, nil
}

// Open opens an existing repository.
func Open(fs core.FS, root string) (*Repo, error) {
	r := &Repo{fs: fs, root: root}
	if _, err := fs.ReadFile(r.path("HEAD")); err != nil {
		return nil, core.Errorf(core.KindName, "no repository at %s (run init first)", root)
	}
	return r, nil
}

// Head returns the current commit hash ("" for an empty repository).
func (r *Repo) Head() (string, error) {
	b, err := r.fs.ReadFile(r.path("HEAD"))
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(b)), nil
}

func hashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16])
}

// Commit snapshots the given files as a new commit and advances HEAD.
func (r *Repo) Commit(author, message string, files map[string][]byte) (string, error) {
	if len(files) == 0 {
		return "", core.Errorf(core.KindConstraint, "nothing to commit")
	}
	parent, err := r.Head()
	if err != nil {
		return "", err
	}
	seq := 1
	if parent != "" {
		pc, err := r.readCommit(parent)
		if err != nil {
			return "", err
		}
		seq = pc.Seq + 1
		// refuse empty commits
		same := len(pc.Files) == len(files)
		if same {
			for _, p := range pc.Files {
				blob, err := r.FileAt(parent, p)
				if err != nil {
					same = false
					break
				}
				cur, ok := files[p]
				if !ok || string(cur) != string(blob) {
					same = false
					break
				}
			}
		}
		if same {
			return "", core.Errorf(core.KindConstraint, "no changes since HEAD")
		}
	}
	// store blobs and build the tree manifest
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var tree strings.Builder
	for _, p := range paths {
		h := hashBytes(files[p])
		if err := r.fs.WriteFile(r.path("objects", h), files[p]); err != nil {
			return "", err
		}
		tree.WriteString(h)
		tree.WriteByte(' ')
		tree.WriteString(p)
		tree.WriteByte('\n')
	}
	var commit strings.Builder
	commit.WriteString("parent " + parent + "\n")
	commit.WriteString("author " + author + "\n")
	commit.WriteString("seq " + strconv.Itoa(seq) + "\n")
	commit.WriteString("unix " + strconv.FormatInt(time.Now().Unix(), 10) + "\n")
	commit.WriteString("message " + strings.ReplaceAll(message, "\n", " ") + "\n")
	commit.WriteString("tree\n")
	commit.WriteString(tree.String())
	data := []byte(commit.String())
	h := hashBytes(data)
	if err := r.fs.WriteFile(r.path("commits", h), data); err != nil {
		return "", err
	}
	if err := r.fs.WriteFile(r.path("HEAD"), []byte(h)); err != nil {
		return "", err
	}
	return h, nil
}

func (r *Repo) readCommit(hash string) (*CommitInfo, error) {
	data, err := r.fs.ReadFile(r.path("commits", hash))
	if err != nil {
		return nil, core.Errorf(core.KindName, "no such commit: %s", hash)
	}
	ci := &CommitInfo{Hash: hash}
	lines := strings.Split(string(data), "\n")
	inTree := false
	for _, ln := range lines {
		if ln == "" {
			continue
		}
		if inTree {
			parts := strings.SplitN(ln, " ", 2)
			if len(parts) == 2 {
				ci.Files = append(ci.Files, parts[1])
			}
			continue
		}
		switch {
		case strings.HasPrefix(ln, "parent "):
			ci.Parent = strings.TrimPrefix(ln, "parent ")
		case strings.HasPrefix(ln, "author "):
			ci.Author = strings.TrimPrefix(ln, "author ")
		case strings.HasPrefix(ln, "seq "):
			ci.Seq, _ = strconv.Atoi(strings.TrimPrefix(ln, "seq "))
		case strings.HasPrefix(ln, "unix "):
			ci.Unix, _ = strconv.ParseInt(strings.TrimPrefix(ln, "unix "), 10, 64)
		case strings.HasPrefix(ln, "message "):
			ci.Message = strings.TrimPrefix(ln, "message ")
		case ln == "tree":
			inTree = true
		}
	}
	return ci, nil
}

// treeOf returns path → blob hash at a commit.
func (r *Repo) treeOf(hash string) (map[string]string, error) {
	data, err := r.fs.ReadFile(r.path("commits", hash))
	if err != nil {
		return nil, core.Errorf(core.KindName, "no such commit: %s", hash)
	}
	tree := map[string]string{}
	inTree := false
	for _, ln := range strings.Split(string(data), "\n") {
		if ln == "tree" {
			inTree = true
			continue
		}
		if !inTree || ln == "" {
			continue
		}
		parts := strings.SplitN(ln, " ", 2)
		if len(parts) == 2 {
			tree[parts[1]] = parts[0]
		}
	}
	return tree, nil
}

// Log lists commits from HEAD back to the root, newest first.
func (r *Repo) Log() ([]CommitInfo, error) {
	head, err := r.Head()
	if err != nil {
		return nil, err
	}
	var out []CommitInfo
	for h := head; h != ""; {
		ci, err := r.readCommit(h)
		if err != nil {
			return nil, err
		}
		out = append(out, *ci)
		h = ci.Parent
	}
	return out, nil
}

// FileAt returns one file's contents at a commit.
func (r *Repo) FileAt(hash, path string) ([]byte, error) {
	tree, err := r.treeOf(hash)
	if err != nil {
		return nil, err
	}
	bh, ok := tree[path]
	if !ok {
		return nil, core.Errorf(core.KindName, "%s is not in commit %s", path, hash)
	}
	return r.fs.ReadFile(r.path("objects", bh))
}

// Diff compares two commits (either may be "" for HEAD).
func (r *Repo) Diff(a, b string) ([]DiffEntry, error) {
	resolve := func(h string) (map[string]string, error) {
		if h == "" {
			head, err := r.Head()
			if err != nil {
				return nil, err
			}
			h = head
		}
		if h == "" {
			return map[string]string{}, nil
		}
		return r.treeOf(h)
	}
	ta, err := resolve(a)
	if err != nil {
		return nil, err
	}
	tb, err := resolve(b)
	if err != nil {
		return nil, err
	}
	paths := map[string]bool{}
	for p := range ta {
		paths[p] = true
	}
	for p := range tb {
		paths[p] = true
	}
	sorted := make([]string, 0, len(paths))
	for p := range paths {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	var out []DiffEntry
	for _, p := range sorted {
		ha, inA := ta[p]
		hb, inB := tb[p]
		switch {
		case inA && !inB:
			out = append(out, DiffEntry{Path: p, Status: DiffRemoved})
		case !inA && inB:
			out = append(out, DiffEntry{Path: p, Status: DiffAdded})
		case ha != hb:
			blobA, err := r.fs.ReadFile(r.path("objects", ha))
			if err != nil {
				return nil, err
			}
			blobB, err := r.fs.ReadFile(r.path("objects", hb))
			if err != nil {
				return nil, err
			}
			out = append(out, DiffEntry{
				Path: p, Status: DiffModified,
				Lines: DiffLines(string(blobA), string(blobB)),
			})
		}
	}
	return out, nil
}

// DiffLines computes a line diff (LCS-based) rendered unified-style:
// " ctx", "-old", "+new".
func DiffLines(a, b string) []string {
	al := splitLines(a)
	bl := splitLines(b)
	// LCS table
	n, m := len(al), len(bl)
	lcs := make([][]int, n+1)
	for i := range lcs {
		lcs[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if al[i] == bl[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else if lcs[i+1][j] >= lcs[i][j+1] {
				lcs[i][j] = lcs[i+1][j]
			} else {
				lcs[i][j] = lcs[i][j+1]
			}
		}
	}
	var out []string
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case al[i] == bl[j]:
			out = append(out, " "+al[i])
			i++
			j++
		case lcs[i+1][j] >= lcs[i][j+1]:
			out = append(out, "-"+al[i])
			i++
		default:
			out = append(out, "+"+bl[j])
			j++
		}
	}
	for ; i < n; i++ {
		out = append(out, "-"+al[i])
	}
	for ; j < m; j++ {
		out = append(out, "+"+bl[j])
	}
	return out
}

func splitLines(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(s, "\n"), "\n")
}

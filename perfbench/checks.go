package main

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"mpcrete/internal/ops5"
	"mpcrete/internal/server"
)

// The checkers below judge the program's outputs from first principles
// (the puzzle's rules, the input's own make-up, or an independent run),
// never against a stored copy of earlier output. They take plain data
// so the tests beside them can feed them wrong answers directly.

// fact is a working-memory element reduced to strings.
type fact struct {
	class string
	attrs map[string]string
}

func factsOf(ws []*ops5.WME) []fact {
	out := make([]fact, len(ws))
	for i, w := range ws {
		out[i] = fact{class: w.Class, attrs: make(map[string]string, len(w.Attrs))}
		for a, v := range w.Attrs {
			out[i].attrs[a] = v.String()
		}
	}
	return out
}

// checkQueens requires exactly n queens, one per column 1..n, no two
// sharing a row or a diagonal.
func checkQueens(wm []fact, n int) error {
	rowOf := map[int]int{}
	for _, f := range wm {
		if f.class != "queen" {
			continue
		}
		c, err1 := strconv.Atoi(f.attrs["col"])
		r, err2 := strconv.Atoi(f.attrs["row"])
		if err1 != nil || err2 != nil || c < 1 || c > n || r < 1 || r > n {
			return fmt.Errorf("queens: bad queen col=%q row=%q", f.attrs["col"], f.attrs["row"])
		}
		if _, dup := rowOf[c]; dup {
			return fmt.Errorf("queens: two queens in column %d", c)
		}
		rowOf[c] = r
	}
	if len(rowOf) != n {
		return fmt.Errorf("queens: %d queens, want %d", len(rowOf), n)
	}
	for c1, r1 := range rowOf {
		for c2, r2 := range rowOf {
			if c1 >= c2 {
				continue
			}
			if r1 == r2 {
				return fmt.Errorf("queens: columns %d and %d share row %d", c1, c2, r1)
			}
			if d := r2 - r1; d == c2-c1 || -d == c2-c1 {
				return fmt.Errorf("queens: columns %d and %d share a diagonal", c1, c2)
			}
		}
	}
	return nil
}

// checkTourney requires exactly one pairing per (team, round) of the
// input, each on its round's field, and nothing else.
func checkTourney(wm []fact, teams []string, slots []slot) error {
	type key struct{ team, round string }
	field := map[key]string{}
	for _, t := range teams {
		for _, s := range slots {
			field[key{t, s.round}] = s.field
		}
	}
	seen := map[key]bool{}
	n := 0
	for _, f := range wm {
		if f.class != "pairing" {
			continue
		}
		n++
		k := key{f.attrs["team"], f.attrs["round"]}
		want, ok := field[k]
		switch {
		case !ok:
			return fmt.Errorf("tourney: pairing of unknown team %q or round %q", k.team, k.round)
		case seen[k]:
			return fmt.Errorf("tourney: team %s paired twice in round %s", k.team, k.round)
		case f.attrs["field"] != want:
			return fmt.Errorf("tourney: team %s round %s on field %q, want %q", k.team, k.round, f.attrs["field"], want)
		}
		seen[k] = true
	}
	if n != len(field) {
		return fmt.Errorf("tourney: %d pairings, want %d", n, len(field))
	}
	return nil
}

// firing is one transcript line: the production fired and the time
// tags of the wmes it matched.
type firing struct {
	prod string
	tags []int
}

// checkTranscript requires got to fire the same productions on the
// same time tags, cycle by cycle, as want.
func checkTranscript(got, want []firing) error {
	for i := range min(len(got), len(want)) {
		if got[i].prod != want[i].prod || !slices.Equal(got[i].tags, want[i].tags) {
			return fmt.Errorf("transcript: cycle %d fired %s %v, want %s %v",
				i+1, got[i].prod, got[i].tags, want[i].prod, want[i].tags)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("transcript: %d firings, want %d", len(got), len(want))
	}
	return nil
}

// checkSnapshotWM requires a snapshot's working memory to equal want
// element for element: same IDs, time tags and text.
func checkSnapshotWM(got, want []server.SnapshotWME) error {
	if len(got) != len(want) {
		return fmt.Errorf("snapshot: %d wmes, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("snapshot: wme %d is %d:%d %s, want %d:%d %s", i,
				got[i].ID, got[i].TimeTag, got[i].Text, want[i].ID, want[i].TimeTag, want[i].Text)
		}
	}
	return nil
}

// checkBlocksGoal requires the blocks-world goal state: all n blocks on
// the table, the hand empty, and no goal undone or pending. It reads
// the wmes' OPS5 text and allocates nothing unless it fails, so it can
// run on every session without counting against the server.
func checkBlocksGoal(wm []server.SnapshotWME, n int) error {
	blocks := 0
	for _, w := range wm {
		switch wmeClass(w.Text) {
		case "block":
			blocks++
			if on := wmeAttr(w.Text, "on"); on != "table" {
				return fmt.Errorf("blocks: %s is on %s", wmeAttr(w.Text, "name"), on)
			}
		case "hand":
			if h := wmeAttr(w.Text, "holding"); h != "nothing" {
				return fmt.Errorf("blocks: hand holds %s", h)
			}
		case "goal":
			task, done := wmeAttr(w.Text, "task"), wmeAttr(w.Text, "done")
			if task == "pending" || task == "unstack" && done != "yes" {
				return fmt.Errorf("blocks: goal %s is %s, done %s", wmeAttr(w.Text, "object"), task, done)
			}
		}
	}
	if blocks != n {
		return fmt.Errorf("blocks: %d blocks, want %d", blocks, n)
	}
	return nil
}

// wmeClass returns the class of a wme written as "(class ^a v ...)".
func wmeClass(text string) string {
	text = strings.TrimPrefix(text, "(")
	if i := strings.IndexAny(text, " )"); i >= 0 {
		return text[:i]
	}
	return text
}

// wmeAttr returns the value of ^attr in a wme's text, or "".
func wmeAttr(text, attr string) string {
	for rest := text; ; {
		i := strings.IndexByte(rest, '^')
		if i < 0 {
			return ""
		}
		rest = rest[i+1:]
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return ""
		}
		if rest[:sp] != attr {
			continue
		}
		v := rest[sp+1:]
		if end := strings.IndexAny(v, " )"); end >= 0 {
			v = v[:end]
		}
		return v
	}
}

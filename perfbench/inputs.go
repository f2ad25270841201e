package main

import (
	_ "embed"
	"fmt"
	"math/rand"
	"strings"
)

// The benchmark owns copies of the OPS5 programs it runs, so a later
// edit to the repository's example programs cannot silently change
// what the benchmark measures.
var (
	//go:embed programs/queens.ops5
	queensProgram string
	//go:embed programs/tourney.ops5
	tourneyProgram string
	//go:embed programs/blocks.ops5
	blocksProgram string
)

const (
	queensN      = 8
	tourneyTeams = 30
	tourneySlots = 25
	blocksN      = 8
)

// queensWMEs is the initial working memory of an n-queens instance:
// the board, the squares, the column-ordered attack table, the cursor
// and, last, the search phase.
func queensWMEs(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "(board ^n %d)\n(cursor ^col 1)\n", n)
	for c := 1; c <= n; c++ {
		for r := 1; r <= n; r++ {
			fmt.Fprintf(&b, "(square ^col %d ^row %d)\n", c, r)
		}
	}
	for c1 := 1; c1 <= n; c1++ {
		for c2 := c1 + 1; c2 <= n; c2++ {
			d := c2 - c1
			for r1 := 1; r1 <= n; r1++ {
				for _, r2 := range []int{r1, r1 - d, r1 + d} {
					if r2 >= 1 && r2 <= n {
						fmt.Fprintf(&b, "(attack ^c1 %d ^r1 %d ^c2 %d ^r2 %d)\n", c1, r1, c2, r2)
					}
				}
			}
		}
	}
	b.WriteString("(phase ^name search ^target 0)\n")
	return b.String()
}

// slot is one round of the tournament and the field it is played on.
type slot struct{ round, field string }

// tourneyInput is the Tourney-like instance: the team names, the
// slots, and the initial working memory in a seed-chosen insertion
// order. Every round has exactly one slot, so the order changes which
// pairing fires when, never which pairings exist at the end.
func tourneyInput(teams, slots int, seed int64) (names []string, ss []slot, wmes string) {
	lines := []string{"(phase ^name propose)"}
	for i := 1; i <= teams; i++ {
		names = append(names, fmt.Sprintf("t%d", i))
		lines = append(lines, fmt.Sprintf("(team ^name t%d)", i))
	}
	for i := 1; i <= slots; i++ {
		s := slot{round: fmt.Sprint(i), field: fmt.Sprintf("f%d", i%2+1)}
		ss = append(ss, s)
		lines = append(lines, fmt.Sprintf("(slot ^round %s ^field %s)", s.round, s.field))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return names, ss, strings.Join(lines, "\n") + "\n"
}

// blocksWMEs is a tower of n blocks (b1 on b2 on ... on the table)
// with an unstack goal for each of the top n-1 blocks; only the first
// goal starts active.
func blocksWMEs(n int) string {
	var b strings.Builder
	b.WriteString("(hand ^holding nothing ^from nowhere)\n")
	for i := 1; i <= n; i++ {
		on, clear := "table", "no"
		if i < n {
			on = fmt.Sprintf("b%d", i+1)
		}
		if i == 1 {
			clear = "yes"
		}
		fmt.Fprintf(&b, "(block ^name b%d ^on %s ^clear %s)\n", i, on, clear)
	}
	for i := 1; i < n; i++ {
		task := "pending"
		if i == 1 {
			task = "unstack"
		}
		fmt.Fprintf(&b, "(goal ^task %s ^object b%d ^done no)\n", task, i)
	}
	return b.String()
}

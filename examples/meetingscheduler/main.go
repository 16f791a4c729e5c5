// Command meetingscheduler reproduces the paper's example (v): arranging
// a meeting date across personal diaries with a chain of glued actions.
// Each round narrows the candidate slots; locks on dropped slots are
// released as the chain advances, and the final round books the chosen
// slot in every diary.
package main

import (
	"fmt"
	"log"

	"mca/internal/core"
	"mca/internal/diary"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rt := core.NewRuntime()
	st := core.NewStableStore()

	const days = 14
	ada := diary.NewDiary("ada", days, core.WithStore(st))
	bob := diary.NewDiary("bob", days, core.WithStore(st))
	carol := diary.NewDiary("carol", days, core.WithStore(st))

	// Pre-existing appointments.
	if err := ada.BookDirect(rt, 3, "dentist"); err != nil {
		return err
	}
	if err := bob.BookDirect(rt, 5, "travel"); err != nil {
		return err
	}
	if err := carol.BookDirect(rt, 8, "holiday"); err != nil {
		return err
	}

	sched := diary.NewScheduler(rt, ada, bob, carol)

	// Round 2: everyone prefers the second half of the window.
	preferLate := func(cs []int) []int {
		var out []int
		for _, c := range cs {
			if c >= 7 {
				out = append(out, c)
			}
		}
		if len(out) == 0 {
			return cs
		}
		return out
	}
	// Round 3: project lead picks the earliest remaining.
	pickFirst := func(cs []int) []int { return cs[:1] }

	candidates := []int{3, 5, 7, 8, 9, 11}
	fmt.Printf("candidates: %v\n", candidates)

	chosen, err := sched.Arrange(candidates, "design meeting", preferLate, pickFirst)
	if err != nil {
		return err
	}
	fmt.Printf("candidate set per round: %v\n", sched.RoundCandidates())
	fmt.Printf("meeting booked on day %d\n", chosen)

	for _, d := range []*diary.Diary{ada, bob, carol} {
		slot := d.Peek(chosen)
		fmt.Printf("%-6s day %d: busy=%v note=%q\n", d.Owner(), chosen, slot.Busy, slot.Note)
	}

	// The negotiation held no unnecessary locks at the end: book an
	// unrelated day immediately.
	if err := ada.BookDirect(rt, 9, "gym"); err != nil {
		return fmt.Errorf("unrelated booking after scheduling: %w", err)
	}
	fmt.Println("ada booked day 9 right after — no leftover locks")
	return nil
}

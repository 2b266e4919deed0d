// Closed loop: the Alice–Bob network with the router deciding for
// itself. The other examples orchestrate who transmits when; in the
// registered "closed-loop" scenario the §7.6 triggers make both
// endpoints transmit together, and the router makes its §7.5 decision —
// amplify-and-forward or drop — by peeking at the headers it can reach
// in the interfered signal, with no outside help.
package main

import (
	"fmt"
	"log"

	"repro/anc"
)

func main() {
	sc, ok := anc.LookupScenario("closed-loop")
	if !ok {
		log.Fatal("closed-loop scenario not registered")
	}
	const rounds = 8
	eng := anc.NewEngine(anc.SimConfig{Packets: rounds})
	m, err := eng.Run(sc, anc.SchemeANC, 42)
	if err != nil {
		log.Fatal(err)
	}
	routing, err := eng.Run(sc, anc.SchemeRouting, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("closed-loop Alice–Bob run (%d trigger rounds, one packet each way per round):\n", rounds)
	fmt.Printf("  packets delivered / lost:            %d / %d of %d\n", m.Delivered, m.Lost, 2*rounds)
	fmt.Printf("  mean BER of the interference decodes: %.4f\n", m.MeanBER())
	fmt.Printf("  mean collision overlap:               %.2f\n", m.MeanOverlap())
	fmt.Printf("  throughput gain over routing:         %.2fx\n", m.Throughput()/routing.Throughput())
	fmt.Println("\nEvery forwarding decision above was made from the received signal alone.")
}

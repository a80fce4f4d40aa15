// Command interference reproduces the coexistence study of Fig. 12: the
// same 3-tag deployment run under a clean channel, alongside bursty WiFi
// traffic, alongside a frequency-hopping Bluetooth link, and with an
// intermittent OFDM excitation source. CBMA shrugs off WiFi and Bluetooth
// (their channels are mostly idle or out of band) but suffers when the
// exciter itself is intermittent.
//
//	go run ./examples/interference
package main

import (
	"fmt"
	"os"

	"cbma"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "interference:", err)
		os.Exit(1)
	}
}

func run() error {
	// Fig. 12 is one entry of the paper's experiment registry; Groups and
	// Trials size other experiments and only need to be positive here.
	opts := cbma.ExperimentOptions{Seed: 1, Packets: 150, Groups: 1, Trials: 1, PayloadBytes: 16}
	for _, e := range cbma.Experiments() {
		if e.ID != "fig12" {
			continue
		}
		fmt.Println("Coexistence study — correct packet reception rate (Fig. 12)")
		if err := e.Run(os.Stdout, opts); err != nil {
			return err
		}
	}

	scn := cbma.DefaultScenario()
	scn.NumTags = 3
	scn.PayloadBytes = 16
	scn.Packets = 150
	// The same knobs are available directly for custom scenarios:
	custom := scn
	custom.Interferers = []cbma.Interferer{
		&cbma.WiFiInterferer{PowerDBm: -50, DutyCycle: 0.6},
		&cbma.BluetoothInterferer{PowerDBm: -50},
	}
	engine, err := cbma.NewEngine(custom)
	if err != nil {
		return err
	}
	m, err := engine.Run()
	if err != nil {
		return err
	}
	fmt.Printf("\nCustom heavy-interference run (60%% WiFi duty + Bluetooth): PRR %.3f\n", m.PRR)
	return nil
}

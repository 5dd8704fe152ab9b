package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// pinsJSON holds the expected outputs the correctness gate compares
// every operation against. Regenerate a value only when the program's
// output is meant to change, and say why in the change.
//
//go:embed pins.json
var pinsJSON []byte

type pinFile struct {
	// PaperStudy pins the 40-device catalog study: the SHA-256 of its
	// rendered report, its TLS handshakes, and the records of its
	// dataset (which analyze_disk decodes).
	PaperStudy struct {
		RenderSHA256     string `json:"render_sha256"`
		Handshakes       int64  `json:"handshakes"`
		HandshakeRecords int64  `json:"handshake_records"`
		Records          int64  `json:"records"`
	} `json:"paper_study"`
	// FleetStream pins the handshakes of the streamed fleet per fleet
	// seed. Seeds without a pin are still gated on every internal
	// consistency check.
	FleetStream struct {
		HandshakesBySeed map[string]int64 `json:"handshakes_by_seed"`
	} `json:"fleet_stream"`
	// CoordinatedStudy pins the coordinated window's merged records and
	// the handshakes its workers simulate.
	CoordinatedStudy struct {
		Handshakes int64 `json:"handshakes"`
		Records    int64 `json:"records"`
	} `json:"coordinated_study"`
}

func loadPins() (*pinFile, error) {
	p := &pinFile{}
	if err := json.Unmarshal(pinsJSON, p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// fleetHandshakes returns the pinned handshake count for a fleet seed.
func (p *pinFile) fleetHandshakes(seed uint64) (int64, bool) {
	v, ok := p.FleetStream.HandshakesBySeed[strconv.FormatUint(seed, 10)]
	return v, ok
}

// expect fails when got differs from its pin; a missing (zero) pin
// fails too, so a gate cannot be switched off by leaving a value out.
func expect(what string, got, want int64) error {
	if got != want {
		return fmt.Errorf("%s = %d, pinned %d", what, got, want)
	}
	return nil
}

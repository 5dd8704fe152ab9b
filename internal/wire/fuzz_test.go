package wire_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/ciphers"
	"repro/internal/tlssim"
	"repro/internal/wire"
)

// The wire decoders read bytes an on-path peer controls: the gateway
// sniffer and the interception proxy feed them whatever a device or
// server sends. Each fuzz target asserts the decoder never panics and,
// where an encoder exists, that re-encoding an accepted input and
// parsing it again yields an equal value. A failing input lands in
// testdata/fuzz/<target>/; commit it with the fix, and plain `go test`
// replays it from then on.

// seedHellos returns ClientHellos covering every extension the encoder
// emits: a hand-built TLS 1.3-capable hello, a bare one, and one per
// tlssim library profile built the way a device builds its own.
func seedHellos() []*wire.ClientHello {
	rich := &wire.ClientHello{
		LegacyVersion: ciphers.TLS12,
		SessionID:     []byte{1, 2, 3},
		CipherSuites: []ciphers.Suite{
			ciphers.TLS_AES_128_GCM_SHA256,
			ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
			ciphers.TLS_RSA_WITH_RC4_128_SHA,
		},
		CompressionMethods: []byte{0},
		Extensions: []wire.Extension{
			wire.SNIExtension("cloud.vendor.com"),
			wire.SupportedVersionsExtension([]ciphers.Version{ciphers.TLS13, ciphers.TLS12}),
			wire.SignatureAlgorithmsExtension([]ciphers.SignatureAlgorithm{ciphers.ED25519, ciphers.RSA_PKCS1_SHA256}),
			wire.SupportedGroupsExtension([]uint16{29, 23, 24}),
			wire.ECPointFormatsExtension([]uint8{0}),
			wire.StatusRequestExtension(),
		},
	}
	bare := &wire.ClientHello{LegacyVersion: ciphers.TLS10, CipherSuites: []ciphers.Suite{ciphers.TLS_RSA_WITH_RC4_128_SHA}}
	hellos := []*wire.ClientHello{rich, bare}
	maxVersions := []ciphers.Version{ciphers.TLS13, ciphers.TLS12, ciphers.TLS11, ciphers.TLS10}
	for i, p := range tlssim.Profiles {
		cfg := &tlssim.ClientConfig{
			Library:               p,
			MinVersion:            ciphers.TLS10,
			MaxVersion:            maxVersions[i%len(maxVersions)],
			CipherSuites:          []ciphers.Suite{ciphers.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256, ciphers.TLS_RSA_WITH_AES_128_CBC_SHA},
			SignatureAlgorithms:   []ciphers.SignatureAlgorithm{ciphers.ED25519, ciphers.RSA_PKCS1_SHA256},
			SupportedGroups:       []uint16{29, 23},
			ECPointFormats:        []uint8{0},
			ALPNProtocols:         []string{"h2", "http/1.1"},
			SendSessionTicket:     i%2 == 0,
			SendRenegotiationInfo: i%2 == 1,
			SendSNI:               true,
			Revocation:            tlssim.RevocationMode{RequestStaple: i%3 == 0},
		}
		hellos = append(hellos, cfg.BuildClientHello("device.vendor.example", uint64(i)))
	}
	return hellos
}

// record frames one record the way WriteRecord puts it on the wire.
func record(typ wire.ContentType, payload []byte) []byte {
	var b bytes.Buffer
	wire.WriteRecord(&b, wire.Record{Type: typ, Version: ciphers.TLS12, Payload: payload})
	return b.Bytes()
}

func FuzzReadRecord(f *testing.F) {
	for _, ch := range seedHellos() {
		f.Add(record(wire.TypeHandshake, ch.Message().Marshal()))
	}
	f.Add(record(wire.TypeAlert, wire.Alert{Level: wire.LevelFatal, Description: wire.AlertUnknownCA}.Marshal()))
	f.Add(record(wire.TypeChangeCipherSpec, []byte{1}))
	f.Add(record(wire.TypeApplicationData, nil))
	f.Add([]byte{22, 3, 3})
	f.Add([]byte{22, 3, 3, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := wire.ReadRecord(bytes.NewReader(data))
		if err != nil {
			return
		}
		// The decoder consumed exactly one frame; re-encoding it must
		// give those bytes back.
		var b bytes.Buffer
		if err := wire.WriteRecord(&b, rec); err != nil {
			t.Fatalf("WriteRecord of an accepted record: %v", err)
		}
		if frame := data[:b.Len()]; !bytes.Equal(b.Bytes(), frame) {
			t.Fatalf("record does not round-trip:\n got %x\nwant %x", b.Bytes(), frame)
		}
	})
}

func FuzzParseHandshake(f *testing.F) {
	for _, ch := range seedHellos() {
		f.Add(ch.Message().Marshal())
	}
	coalesced := append(wire.Handshake{Type: wire.TypeServerHello, Body: []byte{1}}.Marshal(),
		wire.Handshake{Type: wire.TypeCertificate, Body: []byte{2, 3}}.Marshal()...)
	f.Add(coalesced)
	f.Add(coalesced[:len(coalesced)-1])
	f.Add(wire.ServerHelloDone().Marshal())
	f.Add([]byte{1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, rest, err := wire.ParseHandshake(data)
		if err != nil {
			return
		}
		if got := append(msg.Marshal(), rest...); !bytes.Equal(got, data) {
			t.Fatalf("message + rest does not reproduce the input:\n got %x\nwant %x", got, data)
		}
		again, tail, err := wire.ParseHandshake(msg.Marshal())
		if err != nil || len(tail) != 0 || again.Type != msg.Type || !bytes.Equal(again.Body, msg.Body) {
			t.Fatalf("re-parse = %+v, %x, %v; want %+v", again, tail, err, msg)
		}
	})
}

func FuzzParseClientHello(f *testing.F) {
	for _, ch := range seedHellos() {
		f.Add(ch.Marshal())
	}
	f.Add([]byte(nil))
	f.Add([]byte{0x03})
	f.Add(make([]byte, 10))
	f.Add(append(seedHellos()[0].Marshal(), 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		ch, err := wire.ParseClientHello(data)
		if err != nil {
			return
		}
		again, err := wire.ParseClientHello(ch.Marshal())
		if err != nil {
			t.Fatalf("re-parse of a re-encoded hello failed: %v", err)
		}
		if !reflect.DeepEqual(again, ch) {
			t.Fatalf("hello changed across re-encoding:\n got %+v\nwant %+v", again, ch)
		}
	})
}

func FuzzParseAlert(f *testing.F) {
	f.Add(wire.Alert{Level: wire.LevelFatal, Description: wire.AlertUnknownCA}.Marshal())
	f.Add(wire.Alert{Level: wire.LevelWarning, Description: wire.AlertCloseNotify}.Marshal())
	f.Add([]byte{})
	f.Add([]byte{2, 40, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := wire.ParseAlert(data)
		if err != nil {
			return
		}
		if got := a.Marshal(); !bytes.Equal(got, data) {
			t.Fatalf("alert does not round-trip: got %x, want %x", got, data)
		}
	})
}

package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/certs"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/tlssim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// fixture is the paper-study testbed the layer probes call into
// directly, with the devices and destinations of the repository's
// root benchmarks: the roku-tv hello (the largest suite list) and the
// nest-thermostat chain and handshake.
type fixture struct {
	s     *core.Study
	nest  *device.Device
	hello *wire.ClientHello
	chain []*certs.Certificate
	vopts certs.VerifyOptions
	ca    certs.KeyPair
	tmpl  certs.Template
}

const probeHost = "bench.example.com"

func newFixture() (*fixture, error) {
	s := core.NewStudy()
	// The probes run at the active snapshot, where the devices' 2021
	// configurations and certificate validity windows apply.
	s.Clock.AdvanceTo(device.ActiveSnapshot.Start())
	roku, ok := s.Registry.Get("roku-tv")
	if !ok {
		return nil, fmt.Errorf("fixture: no roku-tv in the catalog")
	}
	nest, ok := s.Registry.Get("nest-thermostat")
	if !ok {
		return nil, fmt.Errorf("fixture: no nest-thermostat in the catalog")
	}
	ops := device.OperationalCAs(s.Registry.Universe)
	if len(ops) == 0 {
		return nil, fmt.Errorf("fixture: no operational CA")
	}
	tmpl := certs.Template{
		SerialNumber: 999,
		Subject:      certs.Name{CommonName: probeHost},
		NotBefore:    device.StudyStart.Start(),
		NotAfter:     device.ActiveSnapshot.Start().AddDate(5, 0, 0),
		DNSNames:     []string{probeHost},
	}
	leaf := ops[0].Pair.Issue(tmpl, "bench-leaf")
	return &fixture{
		s:     s,
		nest:  nest,
		hello: roku.ConfigAt(0, device.ActiveSnapshot).BuildClientHello(probeHost, 1),
		chain: []*certs.Certificate{leaf.Cert, ops[0].Pair.Cert},
		vopts: certs.VerifyOptions{Roots: nest.Roots, Hostname: probeHost, At: device.ActiveSnapshot.Start()},
		ca:    ops[0].Pair,
		tmpl:  tmpl,
	}, nil
}

// measure times each layer probe and stores its per-call median.
func (fx *fixture) measure(m map[string]metric) error {
	dst := fx.nest.Destinations[0]
	cfg := fx.nest.ConfigAt(0, device.ActiveSnapshot)
	enc := fx.hello.Marshal()
	rec := wire.Record{Type: wire.TypeHandshake, Version: fx.hello.LegacyVersion, Payload: enc}
	var buf bytes.Buffer
	var tracer *trace.Tracer
	var root *trace.Span

	probes := []struct {
		name  string
		scale float64 // ns per unit
		fn    func(i int) error
		batch func() // optional per-batch reset
	}{
		{"wire.clienthello_ns", 1, func(int) error {
			_, err := wire.ParseClientHello(fx.hello.Marshal())
			return err
		}, nil},
		{"wire.record_ns", 1, func(int) error {
			buf.Reset()
			if err := wire.WriteRecord(&buf, rec); err != nil {
				return err
			}
			_, err := wire.ReadRecord(&buf)
			return err
		}, nil},
		{"certs.verify_us", 1e3, func(int) error {
			_, err := certs.Verify(fx.chain, fx.vopts)
			return err
		}, nil},
		{"certs.issue_us", 1e3, func(int) error {
			if fx.ca.Issue(fx.tmpl, "bench-leaf").Cert == nil {
				return fmt.Errorf("issue returned no certificate")
			}
			return nil
		}, nil},
		{"certs.spoof_us", 1e3, func(int) error {
			if certs.Spoof(fx.ca.Cert, "bench-spoof").Cert == nil {
				return fmt.Errorf("spoof returned no certificate")
			}
			return nil
		}, nil},
		{"netem.dial_us", 1e3, func(int) error {
			conn, err := fx.s.Network.Dial(fx.nest.ID, dst.Host, 443)
			if err != nil {
				return err
			}
			return conn.Close()
		}, nil},
		{"tlssim.handshake_us", 1e3, func(i int) error {
			conn, err := fx.s.Network.Dial(fx.nest.ID, dst.Host, 443)
			if err != nil {
				return err
			}
			sess, err := tlssim.Client(conn, cfg, dst.Host, uint64(i))
			if err != nil {
				conn.Close()
				return err
			}
			return sess.Close()
		}, nil},
		// A fresh tracer per batch keeps the retained span records small.
		{"trace.span_ns", 1, func(int) error {
			root.Child("probe", "").End("ok")
			return nil
		}, func() {
			tracer = trace.New(fx.s.Clock, 0)
			root = tracer.Root("bench", "")
		}},
	}
	for _, p := range probes {
		ns, err := timePerCall(p.fn, p.batch)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		m[p.name] = metric{Value: ns / p.scale}
	}
	fx.s.Network.WaitHandlers()
	return nil
}

// timePerCall calibrates a batch size of about 30ms, runs five batches
// and returns the median nanoseconds per call.
func timePerCall(fn func(i int) error, batch func()) (float64, error) {
	const target = 30 * time.Millisecond
	i := 0
	run := func(n int) (time.Duration, error) {
		if batch != nil {
			batch()
		}
		t := time.Now()
		for k := 0; k < n; k++ {
			if err := fn(i); err != nil {
				return 0, err
			}
			i++
		}
		return time.Since(t), nil
	}
	n := 1
	for {
		d, err := run(n)
		if err != nil {
			return 0, err
		}
		if d >= target/8 {
			n = int(float64(n)*float64(target)/float64(d)) + 1
			break
		}
		n *= 2
	}
	var per []float64
	for b := 0; b < 5; b++ {
		d, err := run(n)
		if err != nil {
			return 0, err
		}
		per = append(per, float64(d)/float64(n))
	}
	return median(per), nil
}

package tlssim

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/ciphers"
	"repro/internal/wire"
)

// ServerResult reports everything an interception proxy or cloud server
// learns from one connection attempt: the ClientHello (the fingerprint
// source), the outcome, and — central to the root-store probe — any
// alert the client sent before giving up.
type ServerResult struct {
	// ClientHello is the parsed hello, nil if none arrived.
	ClientHello *wire.ClientHello
	// Session is the established session; nil on failure.
	Session *Session
	// ClientAlert is the alert received from the client, if any.
	ClientAlert *wire.Alert
	// Err describes the failure; nil on success.
	Err *HandshakeError
	// NegotiatedVersion and NegotiatedSuite record the server's choices
	// (set even when the client subsequently aborts).
	NegotiatedVersion ciphers.Version
	NegotiatedSuite   ciphers.Suite
}

// Serve runs the server side of a TLS handshake over conn. It always
// returns a ServerResult; inspect Err for the outcome. Serve closes conn
// on failure but leaves successful sessions open for the caller.
func Serve(conn net.Conn, cfg *ServerConfig) *ServerResult {
	res := &ServerResult{}
	tel := cfg.Telemetry
	sp := tel.StartSpan("handshake.server")
	defer func() {
		tel.Counter("tlssim.server.handshakes").Inc()
		if res.Err != nil {
			conn.Close()
			class := res.Err.Class.String()
			tel.Counter("tlssim.server.failed").Inc()
			tel.Counter("tlssim.server.failed." + class).Inc()
			if res.ClientAlert != nil {
				tel.Counter("tlssim.server.alerts.from_client." + metricLabel(res.ClientAlert.Description.String())).Inc()
			}
			sp.End(class)
		} else {
			tel.Counter("tlssim.server.established").Inc()
			tel.Counter("tlssim.server.established.version." + metricLabel(res.NegotiatedVersion.String())).Inc()
			sp.End("established")
		}
	}()

	conn.SetDeadline(time.Now().Add(cfg.timeout()))
	mr := newMsgReader(conn)
	chMsg, herr := mr.expect(wire.TypeClientHello)
	if herr != nil {
		res.Err = herr
		return res
	}
	ch, err := wire.ParseClientHello(chMsg.Body)
	if err != nil {
		res.Err = failSendingAlert(conn, ciphers.TLS10, FailParameters, wire.AlertDecodeError, err)
		return res
	}
	res.ClientHello = ch
	sp.Phase("client_hello_received")

	var transcript bytes.Buffer
	transcript.Write(chMsg.Marshal())

	switch cfg.Behavior {
	case ServeIncompleteHandshake:
		// Never answer. When the transport supports deterministic
		// stalls (netem pipes), fail the client's pending read right
		// away — same timeout classification, no wall-clock wait.
		// Otherwise hold the connection until the client gives up.
		conn.SetDeadline(noDeadline)
		if s, ok := conn.(interface{ StallPeer() }); ok {
			s.StallPeer()
		}
		buf := make([]byte, 256)
		for {
			if _, err := conn.Read(buf); err != nil {
				break
			}
		}
		conn.Close()
		res.Err = failure(FailIncomplete, nil, errors.New("tlssim: configured to withhold ServerHello"))
		return res
	case ServeReject:
		a := wire.Alert{Level: wire.LevelFatal, Description: wire.AlertHandshakeFailure}
		wire.WriteAlert(conn, ciphers.TLS10, a)
		conn.Close()
		res.Err = failure(FailParameters, &a, errors.New("tlssim: configured to reject handshakes"))
		return res
	}

	// Version selection: highest client-offered version within our range,
	// unless ForceVersion overrides.
	version, ok := selectVersion(ch, cfg)
	if cfg.ForceVersion != 0 {
		version, ok = cfg.ForceVersion, true
	}
	if !ok {
		a := wire.Alert{Level: wire.LevelFatal, Description: wire.AlertProtocolVersion}
		wire.WriteAlert(conn, ciphers.TLS10, a)
		conn.Close()
		res.Err = failure(FailVersion, &a, fmt.Errorf("tlssim: no mutually supported version"))
		return res
	}
	res.NegotiatedVersion = version

	suite, ok := ciphers.SelectSuite(ch.CipherSuites, cfg.CipherSuites, version)
	if !ok {
		a := wire.Alert{Level: wire.LevelFatal, Description: wire.AlertHandshakeFailure}
		wire.WriteAlert(conn, ciphers.TLS10, a)
		conn.Close()
		res.Err = failure(FailParameters, &a, fmt.Errorf("tlssim: no mutually supported ciphersuite at %s", version))
		return res
	}
	res.NegotiatedSuite = suite

	recordVersion := ciphers.MinVersion(version, ciphers.TLS12)
	sh := &wire.ServerHello{
		Version:     version,
		CipherSuite: suite,
	}
	sh.Random = deterministicRandom("server", string(ch.Random[:]), uint64(suite))
	if cfg.OCSPStaple && ch.RequestsOCSPStaple() {
		sh.Extensions = append(sh.Extensions, wire.Extension{Type: wire.ExtStatusRequest})
	}
	// A flight write fails when the client has already hung up, and on
	// a buffered transport whether the write or the next read sees that
	// depends on scheduling, so write errors are classified as reads
	// are: a closed pipe is FailPeerClosed either way.
	shMsg := sh.Message()
	transcript.Write(shMsg.Marshal())
	if err := wire.WriteHandshake(conn, recordVersion, shMsg); err != nil {
		res.Err = classifyReadError(err)
		return res
	}

	certMsg := (&wire.CertificateMsg{Chain: cfg.Chain}).Message()
	transcript.Write(certMsg.Marshal())
	if err := wire.WriteHandshake(conn, recordVersion, certMsg); err != nil {
		res.Err = classifyReadError(err)
		return res
	}

	// ServerHelloDone carries the possession proof: an Ed25519 signature
	// over the transcript so far, by the leaf key.
	proof := ed25519.Sign(cfg.Key.Key, transcriptProofInput(transcript.Bytes()))
	doneMsg := wire.Handshake{Type: wire.TypeServerHelloDone, Body: proof}
	transcript.Write(doneMsg.Marshal())
	if err := wire.WriteHandshake(conn, recordVersion, doneMsg); err != nil {
		res.Err = classifyReadError(err)
		return res
	}
	sp.Phase("server_flight_sent")

	// Client flight: ClientKeyExchange, (CCS), Finished — or an alert if
	// the client rejected our certificate.
	conn.SetDeadline(time.Now().Add(cfg.timeout()))
	ckeMsg, herr := mr.expect(wire.TypeClientKeyExchange)
	if herr != nil {
		res.ClientAlert = mr.LastAlert
		res.Err = herr
		return res
	}
	transcript.Write(ckeMsg.Marshal())
	finMsg, herr := mr.expect(wire.TypeFinished)
	if herr != nil {
		res.ClientAlert = mr.LastAlert
		res.Err = herr
		return res
	}
	wantClient := wire.ComputeVerifyData(transcript.Bytes(), "client")
	if !bytes.Equal(finMsg.Body, wantClient) {
		res.Err = failSendingAlert(conn, recordVersion, FailParameters, wire.AlertDecryptError,
			errors.New("tlssim: client Finished verify data mismatch"))
		return res
	}
	transcript.Write(finMsg.Marshal())
	sp.Phase("client_finished_verified")

	// Server CCS + Finished.
	if err := wire.WriteRecord(conn, wire.Record{Type: wire.TypeChangeCipherSpec, Version: recordVersion, Payload: []byte{1}}); err != nil {
		res.Err = classifyReadError(err)
		return res
	}
	sfin := wire.FinishedMsg{VerifyData: wire.ComputeVerifyData(transcript.Bytes(), "server")}
	if err := wire.WriteHandshake(conn, recordVersion, sfin.Message()); err != nil {
		res.Err = classifyReadError(err)
		return res
	}

	conn.SetDeadline(noDeadline)
	secret := masterSecret(ch.Random, sh.Random, suite)
	res.Session = &Session{
		Conn:        newSecureConn(conn, version, secret, false),
		Version:     version,
		Suite:       suite,
		Hello:       ch,
		ServerHello: sh,
		StapledOCSP: sh.HasStaple(),
	}
	return res
}

// selectVersion picks the highest client-offered version within the
// server's configured range.
func selectVersion(ch *wire.ClientHello, cfg *ServerConfig) (ciphers.Version, bool) {
	best := ciphers.Version(0)
	for _, v := range ch.SupportedVersions() {
		if v >= cfg.MinVersion && v <= cfg.MaxVersion && v > best && v.Known() {
			best = v
		}
	}
	return best, best != 0
}

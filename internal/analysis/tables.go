package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/capture"
	"repro/internal/certs"
	"repro/internal/ciphers"
	"repro/internal/clock"
	"repro/internal/device"
	"repro/internal/mitm"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/rootstore"
	"repro/internal/tlssim"
)

// RenderTable1 renders the device inventory (Table 1).
func RenderTable1(reg *device.Registry) string {
	byCat := map[device.Category][]*device.Device{}
	for _, d := range reg.Devices {
		byCat[d.Category] = append(byCat[d.Category], d)
	}
	t := &table{header: []string{"Category", "n", "Units (M)", "Devices (* = passive only)"}}
	total := 0.0
	for _, cat := range device.Categories {
		devs := byCat[cat]
		var names []string
		units := 0.0
		for _, d := range devs {
			n := d.Name
			if d.PassiveOnly {
				n += "*"
			}
			names = append(names, n)
			units += d.UnitsSoldMillions
		}
		total += units
		sort.Strings(names)
		t.add(string(cat), fmt.Sprintf("%d", len(devs)), fmt.Sprintf("%.1f", units), strings.Join(names, ", "))
	}
	out := t.render("== Table 1: the 40 TLS-supporting devices ==")
	return out + fmt.Sprintf("collective install base: %.0fM units (paper: over 200M)\n", total)
}

// RenderTable2 describes the interception attack suite (Table 2).
func RenderTable2() string {
	t := &table{header: []string{"Attack", "Description"}}
	t.add(mitm.AttackNoValidation.String(), "self-signed certificate; does the device validate at all?")
	t.add(mitm.AttackWrongHostname.String(), "unexpired legitimate chain for "+mitm.AttackerDomain+"; does the device check hostnames?")
	t.add(mitm.AttackInvalidBasicConstraints.String(), "the previous leaf misused as a CA; does the device check BasicConstraints?")
	return t.render("== Table 2: TLS interception attacks ==")
}

// RenderTable3 renders the platform root-store sources (Table 3).
func RenderTable3() string {
	t := &table{header: []string{"Platform", "Total versions", "Earliest year", "Source"}}
	for _, p := range rootstore.Platforms {
		t.add(p.Name, fmt.Sprintf("%d", p.TotalVersions), fmt.Sprintf("%d", p.EarliestYear), p.Source)
	}
	return t.render("== Table 3: root store history sources ==")
}

// Table4Row is one live-measured library row.
type Table4Row struct {
	Library      string
	BadSignature string // alert for known CA with invalid signature
	UnknownCA    string // alert for unknown CA
	Amenable     bool
}

// BuildTable4 measures the alert behaviour of every library profile by
// running real handshakes against spoofed-CA and unknown-CA chains —
// regenerating Table 4 rather than printing the profile constants.
func BuildTable4() []Table4Row {
	root := certs.NewRootCA(certs.Name{CommonName: "Table4 Root", Organization: "IoTLS", Country: "US"}, 1,
		attackWindowStart, attackWindowEnd, "table4-root")
	pool := certs.NewPool()
	pool.Add(root.Cert)

	const host = "table4.example.com"
	spoof := certs.Spoof(root.Cert, "table4-spoofer")
	spoofLeaf := spoof.Issue(certs.Template{
		SerialNumber: 2, Subject: certs.Name{CommonName: host},
		NotBefore: attackWindowStart, NotAfter: attackWindowEnd,
		DNSNames: []string{host},
	}, "table4-spoof-leaf")
	unknownRoot := certs.NewRootCA(certs.Name{CommonName: "Unknown Root"}, 3, attackWindowStart, attackWindowEnd, "table4-unknown")
	unknownLeaf := unknownRoot.Issue(certs.Template{
		SerialNumber: 4, Subject: certs.Name{CommonName: host},
		NotBefore: attackWindowStart, NotAfter: attackWindowEnd,
		DNSNames: []string{host},
	}, "table4-unknown-leaf")

	alertFor := func(profile *tlssim.LibraryProfile, chain []*certs.Certificate, key certs.KeyPair) string {
		cc, sc := netem.Pipe("table4-client", host)
		resCh := make(chan *tlssim.ServerResult, 1)
		go func() {
			resCh <- tlssim.Serve(sc, &tlssim.ServerConfig{
				Chain: chain, Key: key,
				MinVersion: ciphers.TLS10, MaxVersion: ciphers.TLS12,
				CipherSuites: []ciphers.Suite{ciphers.TLS_RSA_WITH_AES_128_CBC_SHA},
			})
		}()
		cfg := &tlssim.ClientConfig{
			Library:      profile,
			MinVersion:   ciphers.TLS10,
			MaxVersion:   ciphers.TLS12,
			CipherSuites: []ciphers.Suite{ciphers.TLS_RSA_WITH_AES_128_CBC_SHA},
			SendSNI:      true,
			Roots:        pool,
			Validation:   tlssim.ValidateFull,
			Clock:        clock.NewSimulated(device.ActiveSnapshot.Start()),
		}
		tlssim.Client(cc, cfg, host, 1)
		res := <-resCh
		if res.ClientAlert == nil {
			return "No Alert"
		}
		return res.ClientAlert.Description.String()
	}

	var rows []Table4Row
	for _, p := range tlssim.Profiles {
		row := Table4Row{
			Library:      p.Name,
			BadSignature: alertFor(p, []*certs.Certificate{spoofLeaf.Cert, spoof.Cert}, spoofLeaf),
			UnknownCA:    alertFor(p, []*certs.Certificate{unknownLeaf.Cert, unknownRoot.Cert}, unknownLeaf),
		}
		row.Amenable = row.BadSignature != "No Alert" && row.UnknownCA != "No Alert" && row.BadSignature != row.UnknownCA
		rows = append(rows, row)
	}
	return rows
}

// RenderTable4 renders the measured rows.
func RenderTable4(rows []Table4Row) string {
	t := &table{header: []string{"Library", "Known CA + invalid signature", "Unknown CA", "Amenable"}}
	for _, r := range rows {
		t.add(r.Library, r.BadSignature, r.UnknownCA, fmt.Sprintf("%v", r.Amenable))
	}
	return t.render("== Table 4: root-store probing amenability by library ==")
}

// RenderTable5 renders downgrade reports (only devices that downgraded,
// like the paper).
func RenderTable5(reports []*mitm.DowngradeReport, nameOf func(string) string) string {
	t := &table{header: []string{"Device", "FailedHandshake", "IncompleteHandshake", "Behaviour", "Downgraded/Total"}}
	for _, r := range sortedDowngrades(reports) {
		if !r.Downgraded() {
			continue
		}
		t.add(nameOf(r.Device), check(r.OnFailed), check(r.OnIncomplete), r.Description,
			fmt.Sprintf("%d / %d", r.DowngradedHosts, r.TotalHosts))
	}
	return t.render("== Table 5: devices that downgrade security upon connection failures ==")
}

func sortedDowngrades(reports []*mitm.DowngradeReport) []*mitm.DowngradeReport {
	out := append([]*mitm.DowngradeReport(nil), reports...)
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	return out
}

// RenderTable6 renders old-version support (only supporting devices).
func RenderTable6(reports []*mitm.OldVersionReport, nameOf func(string) string) string {
	t := &table{header: []string{"Device", "TLS 1.0 available?", "TLS 1.1 available?"}}
	out := append([]*mitm.OldVersionReport(nil), reports...)
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	for _, r := range out {
		if !r.TLS10OK && !r.TLS11OK {
			continue
		}
		t.add(nameOf(r.Device), check(r.TLS10OK), check(r.TLS11OK))
	}
	return t.render("== Table 6: devices that support older TLS versions ==")
}

// RenderTable7 renders interception results (only vulnerable devices).
func RenderTable7(reports []*mitm.InterceptionReport, nameOf func(string) string) string {
	t := &table{header: []string{"Device", "No-Validation", "InvalidBasicConstraints", "Wrong-Hostname", "Vulnerable/Total", "Sensitive data"}}
	out := append([]*mitm.InterceptionReport(nil), reports...)
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	for _, r := range out {
		if !r.Vulnerable() {
			continue
		}
		t.add(nameOf(r.Device),
			check(r.VulnerableTo(mitm.AttackNoValidation)),
			check(r.VulnerableTo(mitm.AttackInvalidBasicConstraints)),
			check(r.VulnerableTo(mitm.AttackWrongHostname)),
			fmt.Sprintf("%d / %d", len(r.VulnerableHosts()), r.TotalHosts),
			check(r.LeakedSensitive()))
	}
	return t.render("== Table 7: devices vulnerable to TLS interception attacks ==")
}

// Table8 summarises revocation support recovered from passive traffic.
type Table8 struct {
	CRL      []string
	OCSP     []string
	Stapling []string
	// NoRevocation counts devices with no revocation behaviour at all.
	NoRevocation int
}

// BuildTable8 computes revocation support from the capture store.
func BuildTable8(store *capture.Store, allDevices []string, nameOf func(string) string) *Table8 {
	crl := map[string]bool{}
	ocsp := map[string]bool{}
	staple := map[string]bool{}
	for _, e := range store.Revocations() {
		switch e.Kind {
		case capture.RevocationCRL:
			crl[e.Device] = true
		case capture.RevocationOCSP:
			ocsp[e.Device] = true
		}
	}
	for _, o := range store.All() {
		if o.RequestedOCSPStaple {
			staple[o.Device] = true
		}
	}
	t8 := &Table8{}
	for _, id := range allDevices {
		any := false
		if crl[id] {
			t8.CRL = append(t8.CRL, nameOf(id))
			any = true
		}
		if ocsp[id] {
			t8.OCSP = append(t8.OCSP, nameOf(id))
			any = true
		}
		if staple[id] {
			t8.Stapling = append(t8.Stapling, nameOf(id))
			any = true
		}
		if !any {
			t8.NoRevocation++
		}
	}
	sort.Strings(t8.CRL)
	sort.Strings(t8.OCSP)
	sort.Strings(t8.Stapling)
	return t8
}

// Render draws the table.
func (t8 *Table8) Render() string {
	t := &table{header: []string{"Method", "Devices (count)"}}
	t.add("Certificate Revocation Lists (CRLs)", fmt.Sprintf("%s (%d)", strings.Join(t8.CRL, ", "), len(t8.CRL)))
	t.add("Online Certificate Status Protocol (OCSP)", fmt.Sprintf("%s (%d)", strings.Join(t8.OCSP, ", "), len(t8.OCSP)))
	t.add("OCSP Stapling", fmt.Sprintf("%s (%d)", strings.Join(t8.Stapling, ", "), len(t8.Stapling)))
	out := t.render("== Table 8: certificate revocation support ==")
	return out + fmt.Sprintf("devices with no revocation checking: %d\n", t8.NoRevocation)
}

// RenderTable9 renders the root-store exploration results.
func RenderTable9(reports []*probe.Report, nameOf func(string) string) string {
	t := &table{header: []string{"Device", "Common certs (total=122)", "Deprecated certs (total=87)", "Distrusted CAs trusted"}}
	out := append([]*probe.Report(nil), reports...)
	// Paper orders by deprecated fraction ascending.
	sort.Slice(out, func(i, j int) bool {
		di, dci := out[i].DeprecatedStats()
		dj, dcj := out[j].DeprecatedStats()
		return float64(di)*float64(dcj) < float64(dj)*float64(dci)
	})
	for _, r := range out {
		ci, cc := r.CommonStats()
		di, dc := r.DeprecatedStats()
		var names []string
		for _, ca := range r.TrustedDistrusted() {
			names = append(names, ca.Cert().Subject.Organization)
		}
		t.add(nameOf(r.Device),
			fmt.Sprintf("%2.0f%% (%d/%d)", pct(ci, cc), ci, cc),
			fmt.Sprintf("%2.0f%% (%d/%d)", pct(di, dc), di, dc),
			strings.Join(names, ", "))
	}
	return t.render("== Table 9: exploring device root stores ==")
}

func pct(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

func check(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

var (
	attackWindowStart = device.ActiveSnapshot.Start().AddDate(-1, 0, 0)
	attackWindowEnd   = device.ActiveSnapshot.Start().AddDate(5, 0, 0)
)

package config

import "testing"

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestSchemeNames(t *testing.T) {
	want := map[Scheme]string{
		SchemeBBB: "bbb", SchemeSP: "sp", SchemeNoGap: "nogap",
		SchemeM: "m", SchemeCM: "cm", SchemeBCM: "bcm",
		SchemeOBCM: "obcm", SchemeCOBCM: "cobcm",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), name)
		}
	}
	if Scheme(99).String() == "" {
		t.Error("unknown scheme has empty name")
	}
}

func TestSchemeLists(t *testing.T) {
	if got := len(SecPBSchemes()); got != 6 {
		t.Errorf("SecPBSchemes count = %d, want 6", got)
	}
	if got := len(AllSchemes()); got != 8 {
		t.Errorf("AllSchemes count = %d, want 8", got)
	}
}

func TestEarlyWorkMonotonicity(t *testing.T) {
	// From NoGap (everything early) to COBCM (nothing early), the early
	// work set must only shrink — this is the design spectrum of Fig 4.
	order := SecPBSchemes()
	count := func(e EarlyWork) int {
		n := 0
		for _, b := range []bool{e.Counter, e.OTP, e.BMT, e.Ciphertext, e.MAC} {
			if b {
				n++
			}
		}
		return n
	}
	prev := 6
	for _, s := range order {
		n := count(s.Early())
		if n >= prev {
			t.Errorf("early work not strictly decreasing at %v: %d >= %d", s, n, prev)
		}
		prev = n
	}
	if !SchemeNoGap.Early().MAC || SchemeM.Early().MAC {
		t.Error("M must defer exactly MAC relative to NoGap")
	}
	if got := SchemeCOBCM.Early(); got != (EarlyWork{}) {
		t.Errorf("COBCM early work = %+v, want none", got)
	}
}

func TestEarlyWorkDependencyChain(t *testing.T) {
	// The metadata dependency graph (Fig 4) requires: OTP needs the
	// counter, ciphertext needs the OTP, MAC needs the ciphertext, BMT
	// needs the counter. Any scheme doing a later stage early must do
	// its prerequisites early.
	for _, s := range SecPBSchemes() {
		e := s.Early()
		if e.OTP && !e.Counter {
			t.Errorf("%v: OTP early without counter", s)
		}
		if e.Ciphertext && !e.OTP {
			t.Errorf("%v: ciphertext early without OTP", s)
		}
		if e.MAC && !e.Ciphertext {
			t.Errorf("%v: MAC early without ciphertext", s)
		}
		if e.BMT && !e.Counter {
			t.Errorf("%v: BMT early without counter", s)
		}
	}
}

func TestSecureFlag(t *testing.T) {
	if SchemeBBB.Secure() {
		t.Error("BBB must be insecure")
	}
	for _, s := range append(SecPBSchemes(), SchemeSP) {
		if !s.Secure() {
			t.Errorf("%v must be secure", s)
		}
	}
}

func TestCacheSets(t *testing.T) {
	cc := CacheConfig{SizeBytes: 64 << 10, Ways: 8, BlockBytes: 64}
	if got := cc.Sets(); got != 128 {
		t.Errorf("64KB/8way/64B sets = %d, want 128", got)
	}
}

func TestPMLatencyConversion(t *testing.T) {
	c := Default()
	if got := c.PMReadCycles(); got != 220 {
		t.Errorf("PM read cycles = %d, want 220 (55ns at 4GHz)", got)
	}
	if got := c.PMWriteCycles(); got != 600 {
		t.Errorf("PM write cycles = %d, want 600 (150ns at 4GHz)", got)
	}
}

func TestEffectiveBMTLevels(t *testing.T) {
	c := Default()
	if c.EffectiveBMTLevels() != 8 {
		t.Errorf("full BMT levels = %d, want 8", c.EffectiveBMTLevels())
	}
	c.BMFMode = BMFDynamic
	if c.EffectiveBMTLevels() != 2 {
		t.Errorf("DBMF levels = %d, want 2", c.EffectiveBMTLevels())
	}
	c.BMFMode = BMFStatic
	if c.EffectiveBMTLevels() != 5 {
		t.Errorf("SBMF levels = %d, want 5", c.EffectiveBMTLevels())
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := Default()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero secpb", func(c *Config) { c.SecPBEntries = 0 }},
		{"inverted watermarks", func(c *Config) { c.DrainLo, c.DrainHi = 0.9, 0.5 }},
		{"hi over 1", func(c *Config) { c.DrainHi = 1.5 }},
		{"zero bmt", func(c *Config) { c.BMTLevels = 0 }},
		{"bad dbmf", func(c *Config) { c.BMFMode = BMFDynamic; c.DBMFHeight = 99 }},
		{"bad sbmf", func(c *Config) { c.BMFMode = BMFStatic; c.SBMFHeight = 0 }},
		{"zero store buffer", func(c *Config) { c.StoreBufferCap = 0 }},
		{"bad pm size", func(c *Config) { c.PMSizeBytes = 100 }},
		{"zero clock", func(c *Config) { c.ClockGHz = 0 }},
		{"non-pow2 sets", func(c *Config) { c.L1.SizeBytes = 3 * 64 * 8 * 24 }},
		{"zero ways", func(c *Config) { c.L2.Ways = 0 }},
	}
	for _, tc := range cases {
		c := base
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", tc.name)
		}
	}
}

func TestWithHelpers(t *testing.T) {
	c := Default().WithScheme(SchemeNoGap).WithSecPBEntries(128)
	if c.Scheme != SchemeNoGap || c.SecPBEntries != 128 {
		t.Errorf("With helpers failed: %v %d", c.Scheme, c.SecPBEntries)
	}
	// Original default untouched (value semantics).
	if Default().Scheme != SchemeCOBCM {
		t.Error("Default mutated")
	}
}

func TestBMFModeString(t *testing.T) {
	if BMFNone.String() != "none" || BMFDynamic.String() != "dbmf" || BMFStatic.String() != "sbmf" {
		t.Error("BMF mode names wrong")
	}
}

func TestSchemeByName(t *testing.T) {
	for _, s := range AllSchemes() {
		got, err := SchemeByName(s.String())
		if err != nil || got != s {
			t.Errorf("SchemeByName(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := SchemeByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestSchemeMarshalText(t *testing.T) {
	b, err := SchemeCOBCM.MarshalText()
	if err != nil || string(b) != "cobcm" {
		t.Errorf("MarshalText = %q, %v", b, err)
	}
	for _, s := range AllSchemes() {
		b, err := s.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var got Scheme
		if err := got.UnmarshalText(b); err != nil || got != s {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", b, got, err, s)
		}
	}
	got := SchemeCM
	if err := got.UnmarshalText([]byte("nope")); err == nil || got != SchemeCM {
		t.Errorf("UnmarshalText(nope) = %v, %v; want an error and no change", got, err)
	}
}

package server

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// FuzzParseTierConfig feeds arbitrary -tier-file contents to
// ParseTierConfig. It must never panic; every catalog it accepts must be
// well formed (non-empty tier names keyed by their own name, non-negative
// budgets, valid tenant IDs mapped to non-empty tiers); and rendering an
// accepted catalog back into the file grammar must parse to equal maps.
// The seed corpus lives in testdata/fuzz/FuzzParseTierConfig.
func FuzzParseTierConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, data string) {
		// Rendering can lengthen a line (vt:60m becomes vt:1h0m0s), so keep
		// inputs well clear of the line scanner's 64 KiB limit.
		if len(data) > 4096 {
			t.Skip()
		}
		tiers, def, tenants, err := ParseTierConfig(strings.NewReader(data))
		if err != nil {
			return
		}
		for name, tier := range tiers {
			if name == "" || tier.Name != name {
				t.Fatalf("tier keyed %q is named %q", name, tier.Name)
			}
			if tier.MaxCells < 0 || tier.MaxVirtualTime < 0 || tier.MaxConcurrentJobs < 0 {
				t.Fatalf("tier %q has a negative budget: %+v", name, tier)
			}
		}
		for tenant, tier := range tenants {
			if !ValidTenantID(tenant) || tier == "" {
				t.Fatalf("accepted tenant-tier %q=%q", tenant, tier)
			}
		}
		text := renderTierConfig(tiers, def, tenants)
		tiers2, def2, tenants2, err := ParseTierConfig(strings.NewReader(text))
		if err != nil {
			t.Fatalf("re-parsing the rendered catalog: %v\n%s", err, text)
		}
		if !maps.Equal(tiers, tiers2) || def != def2 || !maps.Equal(tenants, tenants2) {
			t.Fatalf("round trip changed the catalog:\nfirst:  %v %q %v\nsecond: %v %q %v\nrendered:\n%s",
				tiers, def, tenants, tiers2, def2, tenants2, text)
		}
	})
}

// renderTierConfig writes a catalog in the -tier-file grammar, one
// directive per line in sorted order, omitting unlimited budgets.
func renderTierConfig(tiers map[string]QuotaTier, def string, tenants map[string]string) string {
	var b strings.Builder
	for _, name := range slices.Sorted(maps.Keys(tiers)) {
		tier := tiers[name]
		var budgets []string
		if tier.MaxCells > 0 {
			budgets = append(budgets, fmt.Sprintf("cells:%d", tier.MaxCells))
		}
		if tier.MaxVirtualTime > 0 {
			budgets = append(budgets, "vt:"+tier.MaxVirtualTime.String())
		}
		if tier.MaxConcurrentJobs > 0 {
			budgets = append(budgets, fmt.Sprintf("jobs:%d", tier.MaxConcurrentJobs))
		}
		fmt.Fprintf(&b, "tier %s=%s\n", name, strings.Join(budgets, ","))
	}
	for _, tenant := range slices.Sorted(maps.Keys(tenants)) {
		fmt.Fprintf(&b, "tenant-tier %s=%s\n", tenant, tenants[tenant])
	}
	if def != "" {
		fmt.Fprintf(&b, "default-tier %s\n", def)
	}
	return b.String()
}

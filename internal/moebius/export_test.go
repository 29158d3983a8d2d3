package moebius

// Test-only exports for the external moebius_test package, which can import
// the workload generators (an internal test cannot: workload depends on ir,
// which depends on this package).
var (
	BuildShadowSystem = buildShadowSystem
	ShadowOrig        = shadowOrig
)

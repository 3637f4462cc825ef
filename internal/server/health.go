package server

// The cluster health ladder. A distributed server is "ok" while every
// registered worker is alive and "degraded" while the fleet is impaired
// (workers dead, or none registered); its master is this process, so the
// server cannot lose it and keep answering. A local-mode server is always
// "ok": its substrate is this process.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
)

// healthOf classifies one substrate scrape onto the ladder.
func healthOf(cm ClusterMetrics) string {
	if cm.Mode == "distributed" && (cm.WorkersAlive == 0 || cm.WorkersAlive < cm.WorkersRegistered) {
		return HealthDegraded
	}
	return HealthOK
}

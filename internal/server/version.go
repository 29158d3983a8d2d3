package server

import (
	"net/http"
	"runtime/debug"
)

// Build identification. Mixed-version clusters are a routine failure mode
// of rolling deploys; GET /version on every daemon (and the -version flag
// on the binaries) makes "which build is this worker actually running"
// answerable without shelling into the host. Coordinators log each
// worker's version at registration for the same reason.

// BuildVersion reads the binary's build information (module version, Go
// toolchain, VCS revision) via runtime/debug.ReadBuildInfo. Fields the
// build did not embed are left zero.
func BuildVersion() VersionResponse {
	v := VersionResponse{Version: "(unknown)"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	if bi.Main.Version != "" {
		v.Version = bi.Main.Version
	}
	v.Go = bi.GoVersion
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			v.Revision = s.Value
		case "vcs.modified":
			v.Modified = s.Value == "true"
		}
	}
	return v
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	s.writeBody(w, r, "version", http.StatusOK, BuildVersion())
}

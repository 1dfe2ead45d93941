package core

import (
	"fmt"
	"sort"
	"strings"
)

// Script is the executable realization of one run's placement: the staging
// and launch commands the factory's existing scripts perform. When the
// user accepts an assignment in ForeMan, "the back end will automatically
// generate the needed scripts and commands".
type Script struct {
	RunName  string
	Node     string
	Commands []string
}

// ShellBackend emits plain shell-style staging/launch/stage-out command
// lists against a shared repository path.
type ShellBackend struct {
	// Repository is the shared data repository runs stage from and to.
	Repository string
}

// Generate turns an accepted schedule into scripts.
func (b ShellBackend) Generate(s *Schedule) ([]Script, error) {
	if s == nil || s.Plan == nil {
		return nil, fmt.Errorf("core: Generate on nil schedule")
	}
	repo := b.Repository
	if repo == "" {
		repo = "/repository"
	}
	runs := append([]Run(nil), s.Plan.Runs...)
	sort.Slice(runs, func(i, j int) bool { return runs[i].Name < runs[j].Name })
	var out []Script
	for _, r := range runs {
		node, ok := s.Plan.Assign[r.Name]
		if !ok {
			return nil, fmt.Errorf("core: run %q has no assignment", r.Name)
		}
		dir := "/local/" + r.Name
		out = append(out, Script{
			RunName: r.Name,
			Node:    node,
			Commands: []string{
				fmt.Sprintf("ssh %s mkdir -p %s", node, dir),
				fmt.Sprintf("scp %s/inputs/%s/* %s:%s/", repo, r.Name, node, dir),
				fmt.Sprintf("ssh %s 'cd %s && at %s ./run_forecast.sh'", node, dir, clock(r.Start)),
				fmt.Sprintf("ssh %s 'cd %s && nohup rsync_incremental.sh %s/outgoing/%s &'", node, dir, repo, r.Name),
			},
		})
	}
	return out, nil
}

// clock renders seconds-after-midnight as HH:MM.
func clock(seconds float64) string {
	s := int(seconds)
	return fmt.Sprintf("%02d:%02d", (s/3600)%24, (s/60)%60)
}

// RenderScripts formats scripts for display.
func RenderScripts(scripts []Script) string {
	var b strings.Builder
	for _, s := range scripts {
		fmt.Fprintf(&b, "# %s on %s\n", s.RunName, s.Node)
		for _, c := range s.Commands {
			fmt.Fprintf(&b, "%s\n", c)
		}
	}
	return b.String()
}

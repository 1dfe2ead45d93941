package config

import (
	"os"
	"testing"

	"repro/internal/factory"
)

// FuzzParse feeds arbitrary bytes to the factory-description loader and
// builds a campaign from every config it accepts. Neither step may
// panic: a bad file is an error. Days are capped so an accepted config
// stays cheap to build.
func FuzzParse(f *testing.F) {
	f.Add([]byte(sampleJSON))
	if example, err := os.ReadFile("../../configs/example-factory.json"); err == nil {
		f.Add(example)
	}
	for _, seed := range []string{
		`{`,
		`{"days": 1, "bogus": true}`,
		`{"days": 1, "nodes": [{"name": "", "cpus": 2, "speed": 1}]}`,
		`{"days": 1, "forecasts": [{"name": "f", "timesteps": 10, "meshSides": 10, "node": "n", "startHour": 25}]}`,
		`{"days": 1, "events": [{"day": 1, "type": "explode"}]}`,
		`{"days": 1, "events": [{"day": 1, "type": "add-forecast", "node": "n", "spec": {"name": ""}}]}`,
		`{"days": 1, "events": [{"day": 1, "type": "delay-input", "forecast": "f"}]}`,
		`{"days": 1, "nodes": [{"name": "n", "cpus": 2, "speed": 1}, {"name": "n", "cpus": 2, "speed": 1}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := Parse(data)
		if err != nil {
			return
		}
		cfg.Days = min(cfg.Days, 30)
		_, _ = factory.New(cfg)
	})
}

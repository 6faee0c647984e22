"""Self-tests of run.py's layer-reach checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import run


def traced(workload, spans, **layers):
    lay = {"sim_builds": 1, "littles": [[1.0, 1.0]], "cache_hits": 0,
           "cache_misses": 1, "xmem_profiles": 1}
    lay.update(layers)
    return {"workload": workload, "trace": 1, "traced_interval_ns": [0, 100],
            "spans": [[name, 0, 10, i + 1, 0, 0, 0]
                      for i, name in enumerate(spans)],
            "layers": lay}


ALL = ["sim.run", "counters.profile", "core.experiment.stage",
       "core.sweep.run_stages"]


def failures(d):
    return [what for ok, what in run.layer_checks(d) if not ok]


class LayerChecks(unittest.TestCase):
    def test_every_layer_reached(self):
        self.assertEqual(failures(traced("design-search", ALL)), [])
        self.assertEqual(failures(traced("serve-mixed", ALL,
                                         xmem_profiles=0)), [])

    def test_unreached_layer_fails(self):
        self.assertEqual(failures(traced("design-search", ALL[1:])),
                         ["traced rep never reached System::run"])
        self.assertEqual(
            failures(traced("design-search", ALL, xmem_profiles=0)),
            ["traced rep never reached XMemHarness characterization"])
        self.assertEqual(failures(traced("paper-sweep", ALL)),
                         ["traced rep never reached Experiment::paperTable"])

    def test_untraced_rep_must_simulate(self):
        d = {"workload": "paper-sweep", "trace": 0,
             "reps": [{"sim_us": 5.0}, {"sim_us": 0.0}]}
        self.assertEqual(len(failures(d)), 1)
        d["reps"][1]["sim_us"] = 5.0
        self.assertEqual(failures(d), [])


if __name__ == "__main__":
    unittest.main()

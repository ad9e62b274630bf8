#include "src/sim/simulator.h"

#include <limits>
#include <stdexcept>

#include "src/sim/lane_engine.h"
#include "src/trace/spec2000.h"
#include "src/trace/trace_source.h"
#include "src/trace/workload.h"

namespace samie::sim {

SimResult run_simulation(const SimConfig& cfg, trace::TraceView trace) {
  // One lane, stepped to completion in a single turn: every caller that
  // steps a lane shares this machine construction, cycle loop and
  // integer-ledger fold, so a stepped lane's statistics are
  // bit-identical to this run's by construction.
  const std::unique_ptr<Lane> lane = make_lane(cfg, trace);
  while (lane->step(std::numeric_limits<std::uint64_t>::max())) {
  }
  return lane->finish();
}

SimResult run_program(const SimConfig& cfg, const std::string& program) {
  if (!cfg.trace_path.empty()) return run_trace_file(cfg);
  trace::WorkloadGenerator gen(trace::spec2000_profile(program), cfg.seed);
  const trace::Trace t = gen.generate(cfg.instructions);
  return run_simulation(cfg, t);
}

SimResult run_trace_file(const SimConfig& cfg) {
  if (cfg.trace_path.empty()) {
    throw std::invalid_argument("run_trace_file: cfg.trace_path is empty");
  }
  const trace::TraceSource source =
      trace::TraceSource::open_samt(cfg.trace_path);
  return run_simulation(cfg, source.view());
}

}  // namespace samie::sim

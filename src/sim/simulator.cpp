#include "src/sim/simulator.h"

#include <limits>
#include <stdexcept>

#include "src/sim/lane_engine.h"
#include "src/trace/spec2000.h"
#include "src/trace/trace_source.h"
#include "src/trace/workload.h"

namespace samie::sim {

namespace {

/// One lane, stepped to completion in a single turn: every caller that
/// steps a lane shares this machine construction, cycle loop and
/// integer-ledger fold, so a stepped lane's statistics are bit-identical
/// to this run's by construction.
SimResult run_to_completion(Lane& lane) {
  while (lane.step(std::numeric_limits<std::uint64_t>::max())) {
  }
  return lane.finish();
}

}  // namespace

SimResult run_simulation(const SimConfig& cfg, trace::TraceView trace) {
  return run_to_completion(*make_lane(cfg, trace));
}

SimResult run_simulation(const SimConfig& cfg,
                         const trace::TraceSource& source) {
  return run_to_completion(*make_lane(cfg, source));
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
  return run_simulation(cfg, trace::TraceSource::open_samt(cfg.trace_path));
}

}  // namespace samie::sim

#include "engine/estimators.h"

#include <algorithm>
#include <thread>

namespace tristream {
namespace engine {
namespace {

template <typename Estimator>
Result<std::unique_ptr<StreamingEstimator>> Make(
    const typename Estimator::Options& options) {
  return std::unique_ptr<StreamingEstimator>(
      std::make_unique<Estimator>(options));
}

}  // namespace

Result<std::unique_ptr<StreamingEstimator>> MakeEstimator(
    const std::string& algo, const EstimatorConfig& config) {
  if (!ResolveSimdIsa(config.simd).has_value()) {
    return Status::InvalidArgument(
        std::string("--simd ") + SimdModeName(config.simd) +
        " requested but this CPU does not support it (use --simd auto)");
  }
  if (algo == "tsb" || algo == "bulk") {
    core::TriangleCounterOptions options{
        .num_estimators = config.num_estimators,
        .seed = config.seed,
        .aggregation = config.aggregation,
        .median_groups = config.median_groups,
        .batch_size = config.batch_size,
        .simd = config.simd};
    if (algo == "bulk") return Make<BulkEstimator>(options);
    options.num_threads = config.num_threads;
    if (options.num_threads == 0) {
      options.num_threads = std::max(1u, std::thread::hardware_concurrency());
    }
    options.pin_threads = config.pin_threads;
    return Make<TsbEstimator>(options);
  }
  if (algo == "window") {
    return Make<SlidingWindowEstimator>(
        {.window_size = config.window_size,
         .num_estimators = config.num_estimators,
         .seed = config.seed,
         .aggregation = config.aggregation,
         .median_groups = config.median_groups});
  }
  if (algo == "dynamic") {
    if (config.sample_probability <= 0.0 || config.sample_probability > 1.0) {
      return Status::InvalidArgument(
          "dynamic needs a sampling probability in (0, 1] "
          "(--sample-prob P)");
    }
    if (config.dynamic_groups == 0) {
      return Status::InvalidArgument("dynamic needs --groups G > 0");
    }
    return Make<DynamicEstimator>(
        {.num_groups = config.dynamic_groups,
         .sample_probability = config.sample_probability,
         .seed = config.seed,
         .aggregation = config.aggregation,
         .median_groups = config.median_groups});
  }
  if (algo == "buriol") {
    if (config.num_vertices == 0) {
      return Status::InvalidArgument(
          "buriol needs the vertex universe in advance (--vertices N > 0); "
          "neighborhood sampling (tsb) has no such requirement");
    }
    return Make<BuriolStreamEstimator>(
        {.num_estimators = config.num_estimators,
         .seed = config.seed,
         .num_vertices = config.num_vertices});
  }
  if (algo == "colorful") {
    if (config.num_colors == 0) {
      return Status::InvalidArgument("colorful needs --colors C > 0");
    }
    return Make<ColorfulStreamEstimator>(
        {.num_colors = config.num_colors, .seed = config.seed});
  }
  if (algo == "jg") {
    if (config.max_degree_bound == 0) {
      return Status::InvalidArgument(
          "jg needs an a-priori degree bound (--max-degree D > 0)");
    }
    return Make<JowhariGhodsiStreamEstimator>(
        {.num_estimators = config.num_estimators,
         .seed = config.seed,
         .max_degree_bound = config.max_degree_bound});
  }
  if (algo == "first-edge") {
    return Make<FirstEdgeStreamEstimator>(
        {.num_estimators = config.num_estimators, .seed = config.seed});
  }
  return Status::InvalidArgument("unknown algorithm '" + algo +
                                 "' (known: " + KnownAlgos() + ")");
}

const char* KnownAlgos() {
  return "tsb bulk window dynamic buriol colorful jg first-edge";
}

}  // namespace engine
}  // namespace tristream

#include "core/solver_config.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "core/knl_algorithms.hpp"
#include "core/methods.hpp"
#include "nn/models.hpp"
#include "simhw/gpu_system.hpp"
#include "support/error.hpp"

namespace ds {
namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

double parse_number(const std::string& value, std::size_t line) {
  std::size_t consumed = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &consumed);
  } catch (const std::exception&) {
    DS_CHECK(false, "solver line " << line << ": bad number '" << value << "'");
  }
  DS_CHECK(consumed == value.size(),
           "solver line " << line << ": trailing junk in '" << value << "'");
  return parsed;
}

std::size_t parse_count(const std::string& value, std::size_t line) {
  const double parsed = parse_number(value, line);
  DS_CHECK(parsed >= 0 && parsed == static_cast<double>(
                                        static_cast<std::size_t>(parsed)),
           "solver line " << line << ": expected a non-negative integer, got '"
                          << value << "'");
  return static_cast<std::size_t>(parsed);
}

}  // namespace

std::vector<std::string> solver_methods() {
  return {"original_easgd", "original_easgd_nooverlap",
          "async_sgd",      "async_msgd",
          "async_easgd",    "async_measgd",
          "hogwild_sgd",    "hogwild_easgd",
          "sync_sgd",       "sync_easgd1",
          "sync_easgd2",    "sync_easgd3",
          "cluster_easgd"};
}

SolverSpec parse_solver(const std::string& text) {
  SolverSpec spec;
  std::istringstream in(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw = raw.substr(0, hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;
    const auto colon = line.find(':');
    DS_CHECK(colon != std::string::npos,
             "solver line " << line_no << ": expected 'key: value', got '"
                            << line << "'");
    const std::string key = trim(line.substr(0, colon));
    const std::string value = trim(line.substr(colon + 1));
    DS_CHECK(!value.empty(), "solver line " << line_no << ": empty value for '"
                                            << key << "'");

    if (key == "method") {
      const auto methods = solver_methods();
      DS_CHECK(std::find(methods.begin(), methods.end(), value) !=
                   methods.end(),
               "solver line " << line_no << ": unknown method '" << value
                              << "'");
      spec.method = value;
    } else if (key == "net") {
      spec.net = value;
    } else if (key == "dataset") {
      spec.dataset = value;
    } else if (key == "train_count") {
      spec.train_count = parse_count(value, line_no);
    } else if (key == "test_count") {
      spec.test_count = parse_count(value, line_no);
    } else if (key == "data_seed") {
      spec.data_seed = parse_count(value, line_no);
    } else if (key == "workers") {
      spec.train.workers = parse_count(value, line_no);
    } else if (key == "max_iter") {
      spec.train.iterations = parse_count(value, line_no);
    } else if (key == "batch_size") {
      spec.train.batch_size = parse_count(value, line_no);
    } else if (key == "base_lr") {
      spec.train.learning_rate = static_cast<float>(parse_number(value, line_no));
    } else if (key == "momentum") {
      spec.train.momentum = static_cast<float>(parse_number(value, line_no));
    } else if (key == "lr_policy") {
      try {
        spec.train.lr_schedule.policy = parse_lr_policy(value);
      } catch (const Error&) {
        DS_CHECK(false, "solver line " << line_no << ": unknown lr_policy '"
                                       << value << "'");
      }
    } else if (key == "gamma") {
      spec.train.lr_schedule.gamma = parse_number(value, line_no);
    } else if (key == "stepsize") {
      spec.train.lr_schedule.step_size = parse_count(value, line_no);
    } else if (key == "power") {
      spec.train.lr_schedule.power = parse_number(value, line_no);
    } else if (key == "lr_max_iter") {
      spec.train.lr_schedule.max_iter = parse_count(value, line_no);
    } else if (key == "warmup_iters") {
      spec.train.lr_schedule.warmup_iters = parse_count(value, line_no);
    } else if (key == "warmup_start") {
      spec.train.lr_schedule.warmup_start = parse_number(value, line_no);
    } else if (key == "rho") {
      spec.train.rho = static_cast<float>(parse_number(value, line_no));
    } else if (key == "test_interval") {
      spec.train.eval_every = parse_count(value, line_no);
      DS_CHECK(spec.train.eval_every > 0,
               "solver line " << line_no << ": test_interval must be >= 1");
    } else if (key == "test_iter") {
      spec.train.eval_samples = parse_count(value, line_no);
    } else if (key == "seed") {
      spec.train.seed = parse_count(value, line_no);
    } else if (key == "layout") {
      if (value == "packed") {
        spec.train.layout = MessageLayout::kPacked;
      } else if (value == "per_layer") {
        spec.train.layout = MessageLayout::kPerLayer;
      } else {
        DS_CHECK(false, "solver line " << line_no << ": layout must be "
                                       << "'packed' or 'per_layer'");
      }
    } else if (key == "reduce_algo") {
      if (value == "tree") {
        spec.train.reduce_algo = CollectiveAlgo::kBinomialTree;
      } else if (value == "linear") {
        spec.train.reduce_algo = CollectiveAlgo::kLinear;
      } else {
        DS_CHECK(false, "solver line " << line_no << ": reduce_algo must be "
                                       << "'tree' or 'linear'");
      }
    } else {
      DS_CHECK(false, "solver line " << line_no << ": unknown key '" << key
                                     << "'");
    }
  }
  return spec;
}

SolverSpec load_solver_file(const std::string& path) {
  std::ifstream in(path);
  DS_CHECK(in.is_open(), "cannot open solver file: " << path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse_solver(buffer.str());
}

NetworkFactory make_factory(const SolverSpec& spec) {
  const std::uint64_t seed = spec.train.seed * 7 + 1;
  const PackMode pack = spec.train.layout == MessageLayout::kPerLayer
                            ? PackMode::kPerLayer
                            : PackMode::kPacked;
  if (spec.net == "lenet_s") {
    return [seed, pack] { Rng rng(seed); return make_lenet_s(rng, pack); };
  }
  if (spec.net == "alexnet_s") {
    return [seed, pack] { Rng rng(seed); return make_alexnet_s(rng, pack); };
  }
  if (spec.net == "vgg_s") {
    return [seed, pack] { Rng rng(seed); return make_vgg_s(rng, pack); };
  }
  if (spec.net == "googlenet_s") {
    return [seed, pack] { Rng rng(seed); return make_googlenet_s(rng, pack); };
  }
  if (spec.net == "tiny_mlp") {
    return [seed, pack] { Rng rng(seed); return make_tiny_mlp(rng, pack); };
  }
  DS_CHECK(false, "unknown net '" << spec.net << "'");
  return {};
}

TrainTest make_dataset(const SolverSpec& spec) {
  if (spec.dataset == "mnist_like") {
    return mnist_like(spec.data_seed, spec.train_count, spec.test_count);
  }
  if (spec.dataset == "cifar_like") {
    return cifar_like(spec.data_seed, spec.train_count, spec.test_count);
  }
  if (spec.dataset == "imagenet_like") {
    return imagenet_like(spec.data_seed, spec.train_count, spec.test_count);
  }
  DS_CHECK(false, "unknown dataset '" << spec.dataset << "'");
  return {};
}

namespace {

PaperModelInfo paper_model_for(const std::string& net) {
  if (net == "alexnet_s") return paper_alexnet();
  if (net == "vgg_s") return paper_vgg19();
  if (net == "googlenet_s") return paper_googlenet();
  return paper_lenet();  // lenet_s and tiny_mlp
}

}  // namespace

RunResult run_solver(const SolverSpec& spec, const TrainTest& data) {
  AlgoContext ctx;
  ctx.factory = make_factory(spec);
  ctx.train = &data.train;
  ctx.test = &data.test;
  ctx.config = spec.train;

  const double sample_bytes =
      static_cast<double>(data.train.sample_numel()) * sizeof(float);
  const GpuSystem hw(GpuSystemConfig{}, paper_model_for(spec.net),
                     sample_bytes);

  const std::string& m = spec.method;
  if (m == "original_easgd") {
    return run_original_easgd(ctx, hw, OriginalVariant::kOverlapped);
  }
  if (m == "original_easgd_nooverlap") {
    return run_original_easgd(ctx, hw, OriginalVariant::kNonOverlapped);
  }
  if (m == "async_sgd") return run_async(ctx, hw, AsyncMethod::kAsyncSgd);
  if (m == "async_msgd") {
    return run_async(ctx, hw, AsyncMethod::kAsyncMomentumSgd);
  }
  if (m == "async_easgd") return run_async(ctx, hw, AsyncMethod::kAsyncEasgd);
  if (m == "async_measgd") {
    return run_async(ctx, hw, AsyncMethod::kAsyncMomentumEasgd);
  }
  if (m == "hogwild_sgd") return run_async(ctx, hw, AsyncMethod::kHogwildSgd);
  if (m == "hogwild_easgd") {
    return run_async(ctx, hw, AsyncMethod::kHogwildEasgd);
  }
  if (m == "sync_sgd") return run_sync_sgd(ctx, hw);
  if (m == "sync_easgd1") {
    return run_sync_easgd(ctx, hw, SyncEasgdVariant::kEasgd1);
  }
  if (m == "sync_easgd2") {
    return run_sync_easgd(ctx, hw, SyncEasgdVariant::kEasgd2);
  }
  if (m == "sync_easgd3") {
    return run_sync_easgd(ctx, hw, SyncEasgdVariant::kEasgd3);
  }
  if (m == "cluster_easgd") {
    ClusterTiming timing;
    timing.model = paper_model_for(spec.net);
    return run_cluster_sync_easgd(ctx, timing);
  }
  DS_CHECK(false, "unknown method '" << m << "'");
  return {};
}

RunResult run_solver(const SolverSpec& spec) {
  const TrainTest data = make_dataset(spec);
  return run_solver(spec, data);
}

}  // namespace ds

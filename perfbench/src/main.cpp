// perfbench — the repository benchmark's harness binary.
//
//   perfbench --workload <codec-1core|wire-decode|wire-hot> --seed N
//             --seconds S --trace <0|1>
//
// Prints one JSON line: host and build facts, attempted/failed operation
// counts, the measured metrics by name (end-to-end with --trace 0, per-layer
// with --trace 1), and the exact-count invariants of the run.  run.py turns
// it into the benchmark's result line.
#include "bench.hpp"

#include <j2k/kernels.hpp>
#include <runtime/metrics.hpp>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

namespace {

int usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <codec-1core|wire-decode|wire-hot> "
                 "--seed N --seconds S --trace <0|1>\n");
    return 2;
}

std::string json_string(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

}  // namespace

int main(int argc, char** argv)
{
    const std::size_t nproc = perfbench::allowed_cpus().size();
    perfbench::options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char* v = argv[i + 1];
        if (k == "--workload") opt.workload = v;
        else if (k == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds") opt.seconds = std::strtod(v, nullptr);
        else if (k == "--trace") opt.trace = std::strcmp(v, "1") == 0;
        else return usage();
    }
    if (argc % 2 == 0 || !(opt.seconds > 0)) return usage();

    perfbench::result res;
    try {
        if (opt.workload == "codec-1core")
            res = perfbench::run_codec_1core(opt);
        else if (opt.workload == "wire-decode" || opt.workload == "wire-hot")
            res = perfbench::run_wire(opt);
        else
            return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    std::string out = "{\"host\":{";
    out += "\"nproc\":" + std::to_string(nproc);
    out += ",\"hardware_concurrency\":" + std::to_string(std::thread::hardware_concurrency());
    out += ",\"kernel_isa\":" + json_string(j2k::kernel_isa_name(j2k::active_kernel_isa()));
    out += ",\"compiler\":" + json_string(runtime::compiler_version());
    out += ",\"build_type\":" + json_string(runtime::build_type());
    out += std::string{",\"obs_tracing\":"} + (obs::tracing_compiled() ? "true" : "false");
    out += "},\"attempted\":" + std::to_string(res.attempted);
    out += ",\"failed\":" + std::to_string(res.failed);
    out += ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, v] : res.metrics) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(v) ? v : 0.0);
        if (!first) out += ',';
        out += json_string(name);
        out += ':';
        out += buf;
        first = false;
    }
    out += "},\"invariants\":{";
    first = true;
    for (const auto& [name, v] : res.invariants) {
        if (!first) out += ',';
        out += json_string(name);
        out += ':';
        out += std::to_string(v);
        first = false;
    }
    out += "}}\n";
    std::fputs(out.c_str(), stdout);
    return 0;
}

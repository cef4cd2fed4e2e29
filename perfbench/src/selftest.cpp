// Oracle mutation self-test: the benchmark's oracle must accept true
// results and reject each of these mutations — one flipped label, a label
// out of range, an off-by-one cut, and a served response that differs from
// its offline twin (a one-byte change, and a twin computed with another
// seed).  Exits 0 when every case behaves, 1 otherwise.
//
//   perfbench_selftest [WORK_DIR]   (the served case binds a socket there)
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "mgp.hpp"
#include "oracle.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++failures;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mgp;
  using perfbench::check_labels;
  using perfbench::check_repeat;
  using perfbench::check_same_bytes;
  using perfbench::label_hash;

  const Graph g = fem2d_tri(20, 20, 7);
  const part_t k = 4;
  Rng rng(11);
  const KwayResult r = kway_partition(g, k, MultilevelConfig::paper_default(), rng);
  const std::uint64_t ref = label_hash(r.part);

  expect(check_labels(g, r.part, k, r.edge_cut).empty(), "true result accepted");
  expect(check_repeat(label_hash(r.part), ref).empty(), "identical repeat accepted");

  // Flip the first label whose move changes the cut, so both checks object.
  std::vector<part_t> flipped;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    flipped = r.part;
    flipped[static_cast<std::size_t>(v)] = (flipped[static_cast<std::size_t>(v)] + 1) % k;
    if (compute_kway_cut(g, flipped) != r.edge_cut) break;
  }
  expect(!check_repeat(label_hash(flipped), ref).empty(),
         "flipped label rejected by the repeat hash");
  expect(!check_labels(g, flipped, k, r.edge_cut).empty(),
         "flipped label rejected by the cut check");

  std::vector<part_t> out_of_range = r.part;
  out_of_range[1] = k;
  expect(!check_labels(g, out_of_range, k, r.edge_cut).empty(), "label k rejected");
  std::vector<part_t> short_labels(r.part.begin(), r.part.end() - 1);
  expect(!check_labels(g, short_labels, k, r.edge_cut).empty(),
         "short labelling rejected");

  expect(!check_labels(g, r.part, k, r.edge_cut + 1).empty(), "cut + 1 rejected");
  expect(!check_labels(g, r.part, k, r.edge_cut - 1).empty(), "cut - 1 rejected");

  // A real served response against its offline twin.
  char cwd[4096];
  std::string dir = (argc > 1 ? std::string(argv[1]) : std::string(".")) + "/tXXXXXX";
  if (getcwd(cwd, sizeof(cwd)) == nullptr || mkdtemp(dir.data()) == nullptr ||
      chdir(dir.c_str()) != 0) {
    std::printf("FAIL could not enter a socket directory\n");
    return 1;
  }
  {
    server::ServerConfig scfg;
    scfg.unix_path = "t.sock";
    scfg.num_workers = 1;
    server::Server srv(scfg);
    std::string err;
    expect(srv.start(err), "server starts");
    server::Client cl = server::Client::connect_unix(scfg.unix_path, err);
    server::RequestOptions opts;
    opts.k = k;
    opts.seed = 5;
    const server::PartitionOutcome out = cl.partition(g, opts);
    expect(out.ok(), "served request answered OK");

    std::vector<std::uint8_t> payload, served, twin;
    server::encode_partition_response(out.part, k, out.edge_cut, out.cache_hit, served);
    auto twin_bytes = [&](std::uint64_t seed) {
      server::RequestOptions o = opts;
      o.seed = seed;
      server::encode_partition_request(g, o, payload);
      server::RequestHead head;
      server::decode_request_head(payload, head, err);
      Rng trng(head.seed);
      KwayScratch scratch;
      std::vector<part_t> part;
      const ewt_t cut = kway_partition_into(g, k, server::config_from_head(head), trng,
                                            scratch, nullptr, part);
      server::encode_partition_response(part, k, cut, false, twin);
      return twin;
    };
    const std::vector<std::uint8_t> same = twin_bytes(opts.seed);
    expect(check_same_bytes(served, same).empty(), "served response equals its twin");
    std::vector<std::uint8_t> mutated = same;
    mutated[mutated.size() - 1] ^= 1;
    expect(!check_same_bytes(served, mutated).empty(), "one-byte twin change rejected");
    const std::vector<std::uint8_t> shorter(same.begin(), same.end() - 4);
    expect(!check_same_bytes(served, shorter).empty(), "shorter twin rejected");
    expect(!check_same_bytes(served, twin_bytes(opts.seed + 1)).empty(),
           "twin of another seed rejected");
    cl = server::Client();
    srv.request_stop();
    srv.join();
  }
  if (chdir(cwd) != 0) return 1;
  rmdir(dir.c_str());

  std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}

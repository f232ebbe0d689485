// Table V — search time and sub-net size on SynthC10.
//
// Two complementary views:
//  (a) measured wall-clock seconds/round for each method on this machine
//      at bench scale, with the *measured* payload bytes per participant;
//  (b) extrapolated search hours at the PAPER's scale (8-cell / 4-node /
//      C=16 supernet on 32x32 images, batch 256, 6000 rounds), computed
//      from the analytic MAC model (src/nas/flops.h) and the calibrated
//      device profiles. The reproduction targets are the ratios: ours is
//      much cheaper per participant than FedNAS (mixed-op supernet) and
//      EvoFedNAS; TX2 is ~4-5x a 1080 Ti; the sub-net payload is a small
//      fraction of the supernet payload.
#include "bench/bench_common.h"
#include "src/baselines/evofednas.h"
#include "src/baselines/gradient_nas.h"
#include "src/nas/flops.h"
#include "src/sim/devices.h"

int main() {
  using namespace fms;
  bench::Workload w = bench::make_workload_c10(10, bench::Dist::kIid);
  SearchConfig cfg = bench::bench_search_config();
  const int probe_rounds = bench::scaled(12);
  const double total_rounds = 6000.0;  // paper's search schedule
  const int paper_batch = 256;

  // Paper-scale supernet for the analytic cost model.
  SupernetConfig paper;
  paper.num_cells = 8;
  paper.num_nodes = 4;
  paper.stem_channels = 16;
  paper.image_size = 32;

  // Average sub-model MACs under the uniform initial policy.
  Rng mask_rng(5);
  double sub_macs = 0.0;
  const int samples = 32;
  for (int i = 0; i < samples; ++i) {
    Mask m = random_mask(Cell::num_edges(paper.num_nodes), mask_rng);
    sub_macs += static_cast<double>(submodel_macs(paper, m));
  }
  sub_macs /= samples;
  const double mixed_macs = static_cast<double>(supernet_mixed_macs(paper));

  auto hours = [&](const DeviceProfile& dev, double macs_per_step,
                   double rounds) {
    const double flops = training_flops(
        static_cast<std::uint64_t>(macs_per_step), paper_batch);
    return compute_seconds(dev, flops) * rounds / 3600.0;
  };

  Table t("Table V — Search Time on SynthC10");
  t.columns({"Method", "measured s/round (CPU)",
             "paper-scale hours (cost model)", "payload/participant (MB)"});

  {  // Ours: measured CPU time + paper-scale cost per participant step.
    // One thread, as the baselines below run: the column compares
    // per-round compute, not how many cores a search may take.
    SearchConfig serial = cfg;
    serial.threads = 1;
    FederatedSearch search(serial, w.data.train, w.partition);
    search.run_warmup(3);
    Stopwatch sw;
    search.run_search(probe_rounds, SearchOptions{});
    const double per_round = sw.elapsed_seconds() / probe_rounds;
    for (const DeviceProfile& dev : {gtx_1080ti(), jetson_tx2()}) {
      t.row({std::string("Ours (") + dev.name + ")", Table::num(per_round, 3),
             Table::num(hours(dev, sub_macs, total_rounds), 2),
             bench::mb(search.avg_submodel_bytes())});
    }
  }
  {  // FedNAS: full supernet payload + mixed-op compute on every client.
    FedNasSearch fednas(cfg.supernet, w.data.train, w.partition, cfg);
    const int fednas_probe = std::max(2, probe_rounds / 4);
    Stopwatch sw;
    GradNasResult res = fednas.run(fednas_probe, cfg.schedule.batch_size);
    const double per_round = sw.elapsed_seconds() / fednas_probe;
    t.row({"FedNAS (1080 Ti-class)", Table::num(per_round, 3),
           Table::num(hours(gtx_1080ti(), mixed_macs, total_rounds), 2),
           bench::mb(static_cast<double>(res.bytes_down_per_participant_round))});
  }
  {  // EvoFedNAS: whole candidate models travel; evolution needs far more
     // rounds to cover the space (paper: 16.1h vs <2.5h for ours).
    EvoFedNasSearch::Options eopts;
    eopts.population = 6;
    EvoFedNasSearch evo(cfg.supernet, w.data.train, w.partition, cfg, eopts);
    const int evo_probe = std::max(3, probe_rounds / 3);
    Stopwatch sw;
    auto res = evo.run(evo_probe, cfg.schedule.batch_size);
    const double per_round = sw.elapsed_seconds() / evo_probe;
    // Candidate cost at paper scale ~= a discretized genotype model.
    Rng grng(9);
    Genotype g = random_genotype(paper.num_nodes, grng);
    const double cand_macs = static_cast<double>(genotype_macs(paper, g));
    t.row({"EvoFedNAS (1080 Ti-class)", Table::num(per_round, 3),
           Table::num(hours(gtx_1080ti(), cand_macs, total_rounds * 4.0), 2),
           bench::mb(res.avg_model_bytes)});
  }

  t.print();
  t.write_csv("fms_table5_searchtime.csv");

  {  // Payload-ratio ablation: sub-model vs supernet bytes (measured).
    Rng rng(11);
    Supernet probe(cfg.supernet, rng);
    Mask m = random_mask(probe.num_edges(), rng);
    std::printf("\npayload ratio (sub-model / supernet): %.3f "
                "(op-only share is 1/N = %.3f; stem+preproc+classifier are "
                "always shipped)\n",
                static_cast<double>(probe.submodel_bytes(m)) /
                    static_cast<double>(probe.supernet_bytes()),
                1.0 / kNumOps);
  }
  std::printf(
      "paper reference: FedNAS <5h (1.93MB supernet payload), EvoFedNAS "
      "16.1h (4.23MB), Ours <2.5h on 1080Ti / <10h on TX2 (0.27MB)\n"
      "shape targets: ours cheapest per participant; TX2 ~4-5x slower than "
      "1080Ti; sub-net payload a small fraction of the supernet payload.\n");
  return 0;
}

// The paper's evaluation in one run: Tables 1-2, Figures 2-8 and the
// Section 3.1 filter ablation, with every paper claim checked by a named
// gate. Writes BENCH_paper.json (host, scale, each figure's rows, the
// claims) to the working directory.
//
// One ExperimentContext walks the peer sweep once; its engines grow in
// place (like the paper's "4 more peers join with their documents" runs)
// and Figures 3-7 all read them at each point. Tables 1-2, Fig 2 and the
// ablation read collection prefixes in an order of their own, so each
// takes its own cheap context. Fig 8(b) calibrates its traffic model on
// ONE build's insertions, while a grown engine reports the insertions of
// every growth step, so it builds HDK and ST from scratch.
//
// Verdicts: `holds` within the claim's tolerance; `not reproduced` only
// for a claim on kKnownGaps, with the reason; `fails` otherwise, and the
// process exits 1. The tolerances are the same at every scale.
//
//   HDKP2P_BENCH_SCALE=tiny ./bench/bench_paper   # smoke scale, seconds
//   ./bench/bench_paper                            # default scale
#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "corpus/stats.h"
#include "engine/engine_factory.h"
#include "engine/overlap.h"
#include "hdk/candidate_builder.h"
#include "hdk/indexer.h"
#include "zipf/model.h"
#include "zipf/traffic_model.h"

namespace hh = ::hdk::hdk;

namespace {

using namespace hdk;
using engine::ExperimentContext;
using engine::ExperimentSetup;
using Values = std::vector<double>;

// Gate tolerances, the same at every scale.
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMaxSkewDrift = 0.25;     // Fig 2: |a1 - a2|
constexpr double kMinStGrowthShare = 0.5;  // Fig 6: ST growth / doc growth
constexpr double kFlatBand = 1.5;          // Fig 6: HDK growth in [1/b, b]
constexpr double kMinOverlapPct = 60.0;    // Fig 7: the paper's 60-90%

/// The claims this reproduction is known not to show. Only these may read
/// `not reproduced`; any other claim outside its tolerance fails.
constexpr std::string_view kKnownGaps[] = {
    "fig3.hdk_stored_grows",
    "fig7.larger_dfmax_overlaps_better",
};

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

struct Claim {
  std::string name, verdict, metric;
  double measured;
  std::string tolerance, reason;
};

/// Every claim's verdict, printed as it is checked.
struct Scorecard {
  std::vector<Claim> claims;

  /// Claim `name` holds when lo <= `metric`'s value <= hi. Outside that
  /// range a known gap reads `not reproduced` (with `reason`), and any
  /// other claim `fails`.
  void Gate(std::string name, std::string metric, double value, double lo,
            double hi, std::string reason = "") {
    const bool ok = value >= lo && value <= hi;
    const bool known = std::find(std::begin(kKnownGaps), std::end(kKnownGaps),
                                 name) != std::end(kKnownGaps);
    const char* verdict = ok ? "holds" : known ? "not reproduced" : "fails";
    const std::string tolerance = hi == kInf    ? Format(">= %.4g", lo)
                                  : lo == -kInf ? Format("<= %.4g", hi)
                                                : Format("[%.4g, %.4g]", lo, hi);
    if (ok) reason.clear();
    std::printf("  [%s] %s: %s = %.4g (tolerance %s)\n", verdict,
                name.c_str(), metric.c_str(), value, tolerance.c_str());
    if (!reason.empty()) std::printf("      reason: %s\n", reason.c_str());
    claims.push_back({std::move(name), verdict, std::move(metric), value,
                      tolerance, std::move(reason)});
  }

  size_t Count(std::string_view verdict) const {
    return std::count_if(claims.begin(), claims.end(),
                         [&](const Claim& c) { return c.verdict == verdict; });
  }
};

/// Rows of numbers that print as a table and go to BENCH_paper.json:
/// `format` is one row's printf format (every conversion takes a double)
/// and `keys` names its columns.
struct Table {
  Table(const char* table_name, const std::string& keys,
        const std::string& format)
      : name(table_name) {
    std::istringstream key_stream(keys);
    for (std::string key; key_stream >> key;) columns.push_back(key);
    std::vector<size_t> starts;  // where each column's conversion begins
    for (size_t i = 0; i < format.size(); ++i) {
      if (format[i] == '%' && format[i + 1] == '%') {
        ++i;
      } else if (format[i] == '%') {
        starts.push_back(starts.empty() ? 0 : i);
      }
    }
    starts.push_back(format.size());
    for (size_t c = 0; c + 1 < starts.size(); ++c) {
      formats.push_back(format.substr(starts[c], starts[c + 1] - starts[c]));
    }
  }

  void Print() const {
    for (const Values& row : rows) {
      for (size_t c = 0; c < formats.size(); ++c) {
        std::printf(formats[c].c_str(), row[c]);
      }
      std::printf("\n");
    }
  }

  Values Column(std::string_view key) const {
    const size_t c = std::find(columns.begin(), columns.end(), key) -
                     columns.begin();
    assert(c < columns.size() && "no such column");
    Values values;
    for (const Values& row : rows) values.push_back(row[c]);
    return values;
  }

  const char* name;
  std::vector<std::string> columns;
  std::vector<std::string> formats;  // one conversion per column
  std::vector<Values> rows;
};

/// The smallest a[i] / b[i].
double MinRatio(const Values& a, const Values& b) {
  double min = kInf;
  for (size_t i = 0; i < a.size(); ++i) min = std::min(min, a[i] / b[i]);
  return min;
}

/// Fig 8: a traffic model's calibration, printed as one line.
Table Calibration(const char* name) {
  return {name,
          "st_postings_per_doc hdk_postings_per_doc st_query_postings_per_doc "
          "hdk_query_postings queries_per_period",
          "  calibration: ST %.1f post/doc, HDK %.1f post/doc, ST %.4f "
          "post/query/doc, HDK %.0f post/query, %.2g queries/period"};
}

/// Fig 8: the model's traffic estimates by collection size.
Table Projection(const char* name) {
  return {name, "docs st_total hdk_total st_over_hdk",
          "  %14.0f %16.3e %16.3e %9.1fx"};
}

/// Everything the run measures, by figure.
struct PaperRun {
  ExperimentSetup setup;
  Table fig2{"fig2", "sample tokens skew scale rank_rf rank_rr",
             "sample l%-4.0f %14.0f %8.3f %12.0f %10.1f %10.1f"};
  Table fig2_curves{"fig2_curves", "rank z1 z2", "%-7.0f %-12.1f %-12.1f"};
  Table fig3{"fig3",
             "peers docs st hdk_high hdk_low low_over_st "
             "new_very_frequent_terms purged_keys",
             "%10.0f %12.0f %16.0f %16.0f %16.0f %9.1fx %13.0f %12.0f"};
  Table fig4{"fig4",
             "peers docs st hdk_high hdk_low low_inserted_over_stored",
             "%10.0f %12.0f %16.0f %16.0f %16.0f %13.2fx"};
  Table fig5{"fig5", "peers docs is1_over_d is2_over_d is3_over_d is_over_d",
             "%10.0f %12.0f %9.3f %9.3f %9.3f %9.3f"};
  Table fig5_theorem3{"fig5_theorem3", "is2_bound pf1 is3_bound pf2",
                      "Theorem-3 upper bounds at the largest point: IS2/D <= "
                      "%.2f (P_f,1=%.3f), IS3/D <= %.2f (P_f,2~%.3f)"};
  Table fig6{"fig6", "peers docs st hdk_high hdk_low st_over_low",
             "%10.0f %12.0f %12.0f %14.0f %14.0f %9.1fx"};
  Table fig7{"fig7", "peers docs hdk_high_pct hdk_low_pct",
             "%10.0f %12.0f %17.1f%% %17.1f%%"};
  Table fig8a_calibration = Calibration("fig8a_calibration");
  Table fig8a = Projection("fig8a");
  Table fig8b_calibration = Calibration("fig8b_calibration");
  Table fig8b = Projection("fig8b");
  Table ablation_window{"ablation_window", "window level2_keys law",
                        "  %8.0f %14.0f %16.0f"};
  Table ablation_levels{"ablation_levels",
                        "level candidates hdks ndks stored_postings",
                        "  %6.0f %12.0f %12.0f %12.0f %16.0f"};
  Table ablation_dfmax{"ablation_dfmax",
                       "df_max keys stored_postings multi_term_keys",
                       "  %8.0f %12.0f %16.0f %14.0f"};
  Scorecard card;

  std::vector<const Table*> Tables() const {
    return {&fig2, &fig2_curves, &fig3, &fig4, &fig5, &fig5_theorem3, &fig6,
            &fig7, &fig8a_calibration, &fig8a, &fig8b_calibration, &fig8b,
            &ablation_window, &ablation_levels, &ablation_dfmax};
  }
};

void Section(const char* title, const char* paper_summary) {
  std::printf("\n");
  bench::Banner(title, paper_summary);
}

void Table1(const ExperimentSetup& setup) {
  Section("Table 1: collection statistics",
          "M=653,546 docs, avg 225 words/doc, Zipf skew a1~1.5");
  ExperimentContext ctx(setup);
  const corpus::CollectionStats& stats = ctx.StatsFor(setup.MaxDocuments());
  const auto row = [](const char* name, double value, int precision) {
    std::printf("%-42s %15.*f\n", name, precision, value);
  };
  std::printf("%-42s %15s\n", "statistic", "value");
  row("total number of documents M", stats.num_documents(), 0);
  row("size in words D (token occurrences)", stats.total_tokens(), 0);
  row("average document size (words)", stats.average_document_length(), 1);
  row("distinct terms |T|", stats.vocabulary_size(), 0);
  row("hapax legomena (cf = 1)", stats.NumHapax(), 0);
  row("very frequent terms (cf > Ff)",
      stats.VeryFrequentTerms(setup.DeriveFf()).size(), 0);
  if (auto fit = zipf::FitZipf(stats.RankFrequencies()); fit.ok()) {
    row("fitted Zipf skew a1 (paper: ~1.5)", fit->skew, 3);
    row("log-log fit R^2", fit->r_squared, 3);
  }
}

void Table2(const ExperimentSetup& setup) {
  Section("Table 2: parameters used in experiments",
          "N=4..28, 5000 docs/peer, DFmax {400,500}, Ff=100000, w=20, "
          "smax=3");
  ExperimentContext ctx(setup);
  const corpus::CollectionStats& stats =
      ctx.StatsFor(uint64_t{setup.initial_peers} * setup.docs_per_peer);
  const HdkParams params = setup.MakeParams(setup.DfMaxLow());
  std::printf("%-38s %-22s %-22s\n", "parameter", "paper", "this run");
  std::printf("%-38s %-22s %u, %u, ..., %u\n", "number of peers N",
              "4, 8, ..., 28", setup.initial_peers,
              setup.initial_peers + setup.peer_step, setup.max_peers);
  std::printf("%-38s %-22s %u\n", "documents per peer", "5,000",
              setup.docs_per_peer);
  std::printf("%-38s %-22s %.0f\n", "size in words l per peer", "1,123,000",
              stats.average_document_length() * setup.docs_per_peer);
  std::printf("%-38s %-22s %llu and %llu\n", "DFmax", "400 and 500",
              static_cast<unsigned long long>(setup.DfMaxLow()),
              static_cast<unsigned long long>(setup.DfMaxHigh()));
  std::printf("%-38s %-22s %llu\n", "Ff", "100,000",
              static_cast<unsigned long long>(setup.DeriveFf()));
  std::printf("%-38s %-22s %u\n", "w", "20", params.window);
  std::printf("%-38s %-22s %u\n", "smax", "3", params.s_max);
  std::printf("%-38s %-22s %u\n", "queries per retrieval run", "3,000",
              setup.num_queries);
}

// Paper: two Zipf curves (skew a = 1.5) for sample sizes l1 < l2; the
// frequency thresholds Ff and Fr cut the curves at ranks rf and rr that
// GROW with the sample size while the skew stays collection-characteristic.
void Fig2(PaperRun& run) {
  const ExperimentSetup& setup = run.setup;
  Section("Figure 2: Zipf functions for two sample sizes",
          "skew independent of l; threshold ranks rf, rr grow with l");
  ExperimentContext ctx(setup);
  const double ff = static_cast<double>(setup.DeriveFf()) / 4.0;
  const double fr = static_cast<double>(setup.DfMaxLow());
  const uint64_t docs[2] = {setup.MaxDocuments() / 4, setup.MaxDocuments()};
  double skew[2] = {0, 0}, scale[2] = {0, 0}, rf[2] = {0, 0}, rr[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const corpus::CollectionStats& stats = ctx.StatsFor(docs[i]);
    if (auto fit = zipf::FitZipf(stats.RankFrequencies()); fit.ok()) {
      skew[i] = fit->skew;
      scale[i] = fit->scale;
      rf[i] = fit->RankOf(ff);
      rr[i] = fit->RankOf(fr);
    }
    run.fig2.rows.push_back({i + 1.0, double(stats.total_tokens()), skew[i],
                             scale[i], rf[i], rr[i]});
  }
  // Curve samples (rank, fitted frequency) for plotting.
  for (double rank : {1.0, 2.0, 5.0, 10.0, 100.0, 1000.0, 10000.0}) {
    run.fig2_curves.rows.push_back({rank, scale[0] * std::pow(rank, -skew[0]),
                                    scale[1] * std::pow(rank, -skew[1])});
  }
  std::printf("thresholds: Ff=%.0f  Fr=%.0f\n\n", ff, fr);
  std::printf("%-12s %14s %8s %12s %10s %10s\n", "curve", "l (tokens)",
              "skew a", "scale C(l)", "rank rf", "rank rr");
  run.fig2.Print();
  std::printf("\nrank    z1(r)        z2(r)\n");
  run.fig2_curves.Print();
  std::printf("\n");
  run.card.Gate("fig2.rf_grows_with_sample", "rf2/rf1", rf[1] / rf[0], 1, kInf);
  run.card.Gate("fig2.rr_grows_with_sample", "rr2/rr1", rr[1] / rr[0], 1, kInf);
  run.card.Gate("fig2.skew_stable", "|a1-a2|", std::abs(skew[0] - skew[1]),
                -kInf, kMaxSkewDrift);
}

double PostingsPerQuery(const engine::BatchResponse& batch) {
  return static_cast<double>(batch.total.postings_fetched) /
         static_cast<double>(batch.responses.size());
}

double OverlapPct(const engine::BatchResponse& batch,
                  const std::vector<std::vector<index::ScoredDoc>>& reference,
                  size_t k) {
  std::vector<std::vector<index::ScoredDoc>> results;
  for (const auto& response : batch.responses) {
    results.push_back(response.results);
  }
  return engine::MeanTopKOverlap(results, reference, k) * 100.0;
}

/// Adds the Figure 3-7 rows of `point`; leaves its queries in `queries`.
Status Measure(ExperimentContext& ctx, const engine::EnginesAtPoint& point,
               std::vector<corpus::Query>& queries, PaperRun& run) {
  const size_t k = ctx.setup().top_k;
  engine::SingleTermEngine& st = *point.st;
  engine::HdkSearchEngine& high = *point.hdk_high;
  engine::HdkSearchEngine& low = *point.hdk_low;
  const double peers = point.num_peers;
  const double docs = static_cast<double>(point.num_docs);
  const p2p::GrowthStats& growth = low.last_growth();
  run.fig3.rows.push_back(
      {peers, docs, st.StoredPostingsPerPeer(), high.StoredPostingsPerPeer(),
       low.StoredPostingsPerPeer(),
       low.StoredPostingsPerPeer() / st.StoredPostingsPerPeer(),
       double(growth.new_very_frequent_terms), double(growth.purged_keys)});
  run.fig4.rows.push_back(
      {peers, docs, st.InsertedPostingsPerPeer(),
       high.InsertedPostingsPerPeer(), low.InsertedPostingsPerPeer(),
       low.InsertedPostingsPerPeer() / low.StoredPostingsPerPeer()});

  double is[4] = {0, 0, 0, 0};
  const double d = static_cast<double>(low.collection_stats().total_tokens());
  for (const auto& level : low.indexing_report().levels) {
    if (level.level <= 3) is[level.level] = level.postings_inserted / d;
  }
  run.fig5.rows.push_back({peers, docs, is[1], is[2], is[3],
                           is[1] + is[2] + is[3]});

  queries = ctx.MakeQueries(point.num_docs, ctx.setup().num_queries);
  const auto st_batch = st.SearchBatch(queries, k);
  const auto low_batch = low.SearchBatch(queries, k);
  const auto high_batch = high.SearchBatch(queries, k);
  run.fig6.rows.push_back(
      {peers, docs, PostingsPerQuery(st_batch), PostingsPerQuery(high_batch),
       PostingsPerQuery(low_batch),
       PostingsPerQuery(st_batch) / PostingsPerQuery(low_batch)});

  HDK_ASSIGN_OR_RETURN(auto bm25, engine::CentralizedBm25Engine::Build(
                                      ctx.GrowTo(point.num_docs)));
  std::vector<std::vector<index::ScoredDoc>> reference;
  for (const auto& q : queries) reference.push_back(bm25->Rank(q.terms, k));
  run.fig7.rows.push_back({peers, docs, OverlapPct(high_batch, reference, k),
                           OverlapPct(low_batch, reference, k)});
  return Status::OK();
}

// The Theorem-3 bounds of Fig 5 at the sweep's last point, from empirical
// P_f estimates: the share of token occurrences carried by expandable
// (frequent, non-VF) terms approximates P_f,1; the occurrence-mass share
// of NDK 2-keys approximates P_f,2 (the paper's P_f,s is occurrence-based,
// not key-count based).
void EstimateTheorem3(const engine::HdkSearchEngine& low, PaperRun& run) {
  const auto& stats = low.collection_stats();
  const HdkParams params = run.setup.MakeParams(run.setup.DfMaxLow());
  const uint64_t tokens = stats.total_tokens();
  const double d = static_cast<double>(tokens);
  uint64_t frequent_tokens = 0;
  for (TermId t = 0; t < stats.cf().size(); ++t) {
    const Freq cf = stats.CollectionFrequency(t);
    if (cf == 0 || cf > params.very_frequent_threshold) continue;
    if (stats.DocumentFrequency(t) > params.df_max) frequent_tokens += cf;
  }
  const double pf1 = static_cast<double>(frequent_tokens) / d;
  double ndk_mass = 0, total_mass = 0, pf2 = 0;
  const auto contents = low.global_index().ExportContents();
  for (const auto& [key, entry] : contents.entries()) {
    if (key.size() != 2) continue;
    total_mass += static_cast<double>(entry.global_df);
    if (!entry.is_hdk) ndk_mass += static_cast<double>(entry.global_df);
  }
  if (total_mass > 0) pf2 = ndk_mass / total_mass;
  run.fig5_theorem3.rows.push_back(
      {zipf::IndexSizeEstimate(tokens, pf1, params.window, 2) / d, pf1,
       zipf::IndexSizeEstimate(tokens, pf2, params.window, 3) / d, pf2});
}

// Paper: HDK indexing stores significantly more postings per peer than
// single-term indexing (13.9x at 140k documents with DFmax=400). A smaller
// DFmax forces more key expansion and hence the larger index.
void Fig3(PaperRun& run) {
  Section("Figure 3: stored postings per peer (index size)",
          "HDK stores ~13.9x more than ST at the largest point (DFmax=400)");
  std::printf("%10s %12s %16s %16s %16s %10s %13s %12s\n", "#peers", "#docs",
              "ST", "HDK DFmax=high", "HDK DFmax=low", "low/ST",
              "new VF terms", "purged keys");
  run.fig3.Print();
  std::printf("(new VF terms, purged keys: what the HDK DFmax=low join wave "
              "to that point did)\n\n");
  const Values peers = run.fig3.Column("peers"), docs = run.fig3.Column("docs");
  const Values st = run.fig3.Column("st"), high = run.fig3.Column("hdk_high");
  const Values low = run.fig3.Column("hdk_low");
  const Values purged = run.fig3.Column("purged_keys");
  run.card.Gate("fig3.hdk_low_above_hdk_high_above_st",
                "min(low/high, high/ST) over the sweep",
                std::min(MinRatio(low, high), MinRatio(high, st)), 1, kInf);

  // Both HDK curves should grow with the collection. Where one shrinks,
  // the join wave that reached that point says why.
  double min_growth = kInf;
  size_t dip = 0;
  for (size_t i = 1; i < st.size(); ++i) {
    const double growth = std::min(low[i] / low[i - 1], high[i] / high[i - 1]);
    if (growth < 1 && dip == 0) dip = i;
    min_growth = std::min(min_growth, growth);
  }
  std::string reason;
  if (dip > 0) {
    Values others = purged;
    others.erase(others.begin() + dip);
    reason = Format(
        "Ff is fixed at the largest point's token share and the collection "
        "crosses it late: the join wave to %.0f peers makes %.0f more terms "
        "very frequent and purges %.0f keys (at most %.0f on any other "
        "wave), so total stored postings (DFmax=low) grow %.1f%% while "
        "documents grow %.1f%%",
        peers[dip], run.fig3.Column("new_very_frequent_terms")[dip],
        purged[dip], *std::max_element(others.begin(), others.end()),
        100 * (low[dip] * peers[dip] / (low[dip - 1] * peers[dip - 1]) - 1),
        100 * (docs[dip] / docs[dip - 1] - 1));
  }
  run.card.Gate("fig3.hdk_stored_grows",
                "smallest step-to-step ratio of the HDK curves", min_growth,
                1, kInf, reason);
}

// Paper: every peer publishes its locally-produced top-DFmax posting lists
// for NDKs while the global index only keeps the global top-DFmax, so HDK
// inserts more postings than it stores; ST inserts exactly what it stores.
void Fig4(PaperRun& run) {
  Section("Figure 4: inserted postings per peer (indexing cost)",
          "inserted > stored for HDK; ST inserts == stores");
  std::printf("%10s %12s %16s %16s %16s %14s\n", "#peers", "#docs", "ST",
              "HDK DFmax=high", "HDK DFmax=low", "low ins/store");
  run.fig4.Print();
  std::printf("\n");
  const auto ratio = [&run](const char* key) {
    return MinRatio(run.fig4.Column(key), run.fig3.Column(key));
  };
  run.card.Gate("fig4.hdk_inserted_exceeds_stored",
                "min HDK inserted/stored over the sweep",
                std::min(ratio("hdk_low"), ratio("hdk_high")), 1, kInf);
  const Values st_inserted = run.fig4.Column("st");
  const Values st_stored = run.fig3.Column("st");
  double st_gap = 0;
  for (size_t i = 0; i < st_inserted.size(); ++i) {
    st_gap = std::max(st_gap, std::abs(st_inserted[i] - st_stored[i]));
  }
  run.card.Gate("fig4.st_inserted_equals_stored",
                "max |ST inserted - stored| over the sweep", st_gap, 0, 0);
}

// Paper: IS1/D <= 1 always; IS2/D and IS3/D grow with the collection
// toward constants; the Theorem 3 estimates (12.16 for IS2/D with
// P_f,1 = 0.8; 11.35 for IS3/D with P_f,2 = 0.257) are deliberate large
// overestimates because they bound the POSITIONAL index.
void Fig5(PaperRun& run) {
  Section("Figure 5: ratio between inserted IS and D",
          "IS1/D <= 1; IS2/D, IS3/D grow toward constants; "
          "Theorem-3 estimates bound them");
  std::printf("%10s %12s %9s %9s %9s %9s\n", "#peers", "#docs", "IS1/D",
              "IS2/D", "IS3/D", "IS/D");
  run.fig5.Print();
  std::printf("\n");
  run.fig5_theorem3.Print();
  std::printf("(paper: estimates 12.16 and 11.35 vs measured 6.26 and "
              "2.82 — estimates deliberately overestimate)\n\n");
  const Values is1 = run.fig5.Column("is1_over_d");
  run.card.Gate("fig5.is1_at_most_d", "max IS1/D over the sweep",
                *std::max_element(is1.begin(), is1.end()), -kInf, 1);
  run.card.Gate("fig5.is2_under_theorem3", "IS2/D at the largest point",
                run.fig5.Column("is2_over_d").back(), -kInf,
                run.fig5_theorem3.Column("is2_bound")[0]);
  run.card.Gate("fig5.is3_under_theorem3", "IS3/D at the largest point",
                run.fig5.Column("is3_over_d").back(), -kInf,
                run.fig5_theorem3.Column("is3_bound")[0]);
}

// Paper: the ST baseline's per-query traffic grows LINEARLY with the
// collection (unbounded posting lists); the HDK curves stay almost
// constant (bounded by nk * DFmax), with DFmax=500 slightly above
// DFmax=400 — "an enormous reduction of bandwidth consumption per query".
void Fig6(PaperRun& run) {
  Section("Figure 6: retrieved postings per query",
          "ST grows linearly; HDK stays ~constant (bounded by nk*DFmax)");
  std::printf("%10s %12s %12s %14s %14s %10s\n", "#peers", "#docs", "ST",
              "HDK DFmax=500'", "HDK DFmax=400'", "ST/low");
  run.fig6.Print();
  std::printf("\n");
  const auto growth = [&run](const char* key) {
    const Values values = run.fig6.Column(key);
    return values.back() / values.front();
  };
  run.card.Gate("fig6.st_traffic_grows",
                "ST growth / collection growth across the sweep",
                growth("st") / growth("docs"), kMinStGrowthShare, kInf);
  run.card.Gate("fig6.hdk_low_traffic_flat",
                "HDK DFmax=low growth across the sweep", growth("hdk_low"),
                1 / kFlatBand, kFlatBand);
  run.card.Gate("fig6.hdk_high_traffic_flat",
                "HDK DFmax=high growth across the sweep", growth("hdk_high"),
                1 / kFlatBand, kFlatBand);
}

// Paper: the HDK engine's top-20 result lists overlap substantially with
// the centralized single-term BM25 reference (Terrier), the overlap being
// higher for the larger DFmax (longer NDK posting lists mimic the
// centralized engine better) — the quality/bandwidth trade-off.
void Fig7(PaperRun& run) {
  Section("Figure 7: top-20 overlap with BM25 relevance scheme",
          "significant overlap; larger DFmax => better overlap");
  std::printf("%10s %12s %18s %18s\n", "#peers", "#docs",
              "overlap DFmax=high", "overlap DFmax=low");
  run.fig7.Print();
  std::printf("\n");
  const Values high = run.fig7.Column("hdk_high_pct");
  const Values low = run.fig7.Column("hdk_low_pct");
  double min_overlap = kInf, min_gap = kInf, max_gap = -kInf;
  for (size_t i = 0; i < high.size(); ++i) {
    min_overlap = std::min({min_overlap, high[i], low[i]});
    min_gap = std::min(min_gap, high[i] - low[i]);
    max_gap = std::max(max_gap, high[i] - low[i]);
  }
  run.card.Gate("fig7.overlap_significant", "lowest overlap % over the sweep",
                min_overlap, kMinOverlapPct, kInf);
  run.card.Gate(
      "fig7.larger_dfmax_overlaps_better",
      "min overlap(high) - overlap(low) over the sweep, points", min_gap, 0,
      kInf,
      Format("DFmax %llu and %llu are too close to order: their overlaps "
             "differ by at most %.1f points; a more distant DFmax needs "
             "a third sweep engine",
             static_cast<unsigned long long>(run.setup.DfMaxLow()),
             static_cast<unsigned long long>(run.setup.DfMaxHigh()),
             std::max(max_gap, -min_gap)));
}

// One Fig 8 projection: the calibration line, then the traffic estimate
// at each collection size.
void Project(const char* title, const zipf::TrafficModelParams& p,
             Table& calibration, Table& sweep) {
  calibration.rows.push_back({p.st_postings_per_doc, p.hdk_postings_per_doc,
                              p.st_query_postings_per_doc,
                              p.hdk_query_postings, p.queries_per_period});
  for (const auto& e : zipf::EstimateTrafficSweep(
           p, {100000, 653546, 2000000, 10000000, 50000000, 200000000,
               653546000, 1000000000})) {
    sweep.rows.push_back({double(e.num_documents), e.st_total, e.hdk_total,
                          e.ratio});
  }
  std::printf("%s\n", title);
  calibration.Print();
  std::printf("  %14s %16s %16s %10s\n", "#documents", "single-term", "HDK",
              "ST/HDK");
  sweep.Print();
  std::printf("\n");
}

// Paper: with monthly re-indexing and 1.5e6 queries/month, HDK generates
// ~20x less total traffic than distributed single-term at Wikipedia scale
// (653,546 docs) and ~42x less at 1e9 documents. Projection (a) uses the
// PAPER's calibration constants and reproduces the published curve; (b)
// calibrates the same model on one from-scratch build at the largest
// sweep point.
Status Fig8(ExperimentContext& ctx, const std::vector<corpus::Query>& queries,
            PaperRun& run) {
  const ExperimentSetup& setup = run.setup;
  Section("Figure 8: estimated total generated traffic",
          "HDK ~20x less at 653,546 docs; ~42x less at 1e9 docs");
  const zipf::TrafficModelParams paper;
  Project("(a) paper-calibrated projection (Wikipedia constants):", paper,
          run.fig8a_calibration, run.fig8a);

  engine::EngineConfig config = setup.MakeConfig(setup.DfMaxLow());
  const uint64_t docs = setup.MaxDocuments();
  const corpus::DocumentStore& store = ctx.GrowTo(docs);
  const auto ranges = engine::SplitEvenly(docs, setup.max_peers);
  HDK_ASSIGN_OR_RETURN(auto hdk, engine::MakeEngine(engine::EngineKind::kHdk,
                                                    config, store, ranges));
  HDK_ASSIGN_OR_RETURN(auto st,
                       engine::MakeEngine(engine::EngineKind::kSingleTerm,
                                          config, store, ranges));
  const double d = static_cast<double>(docs);
  zipf::TrafficModelParams measured;
  measured.st_postings_per_doc =
      st->InsertedPostingsPerPeer() * static_cast<double>(st->num_peers()) / d;
  measured.hdk_postings_per_doc =
      hdk->InsertedPostingsPerPeer() * static_cast<double>(hdk->num_peers()) /
      d;
  measured.st_query_postings_per_doc =
      PostingsPerQuery(st->SearchBatch(queries, setup.top_k)) / d;
  measured.hdk_query_postings =
      PostingsPerQuery(hdk->SearchBatch(queries, setup.top_k));
  measured.queries_per_period = 1.5e6;
  Project("(b) projection calibrated from this run's measurements:",
          measured, run.fig8b_calibration, run.fig8b);

  run.card.Gate("fig8.paper_ratio_at_653546_docs",
                "ST/HDK, paper calibration",
                zipf::EstimateTraffic(paper, 653546).ratio, 15, 30);
  run.card.Gate("fig8.paper_ratio_at_1e9_docs", "ST/HDK, paper calibration",
                zipf::EstimateTraffic(paper, 1000000000ULL).ratio, 35, 50);
  return Status::OK();
}

// Oracle that lets EVERY term expand and treats every key as
// non-discriminative: generates the unfiltered term-set universe.
class PermissiveOracle : public hh::NdkOracle {
 public:
  explicit PermissiveOracle(std::unordered_set<TermId> excluded)
      : excluded_(std::move(excluded)) {}
  bool IsExpandableTerm(TermId t) const override {
    return excluded_.count(t) == 0;
  }
  bool IsNdk(const hh::TermKey&) const override { return true; }

 private:
  std::unordered_set<TermId> excluded_;
};

// The paper argues that size, proximity and redundancy filtering together
// keep the key vocabulary manageable (it would otherwise grow with
// 2^|T|). This quantifies each mechanism on the same collection:
//   * redundancy filtering: candidate pairs when expansion is restricted
//     to non-discriminative terms (the paper's rule) vs expansion over
//     ALL non-VF term pairs (what a naive term-set index would store);
//   * proximity filtering: level-2 key count as a function of w;
//   * size filtering: keys per level s = 1..smax;
//   * DFmax trade-off: key counts and stored postings for a DFmax sweep.
Status Ablation(PaperRun& run) {
  const ExperimentSetup& setup = run.setup;
  Section("Ablation: size / proximity / redundancy filtering",
          "Section 3.1 — the filters keep the key vocabulary scalable");
  ExperimentContext ctx(setup);
  // A mid-sweep collection keeps the unfiltered variants tractable.
  const uint64_t docs = setup.docs_per_peer * setup.initial_peers * 2;
  const corpus::DocumentStore& store = ctx.GrowTo(docs);
  const corpus::CollectionStats& stats = ctx.StatsFor(docs);
  const HdkParams params = setup.MakeParams(setup.DfMaxLow());
  const auto build = [&](const HdkParams& p, hh::BuildReport* report) {
    return hh::CentralizedHdkIndexer(p).Build(store, stats, report);
  };
  const auto level2_candidates = [](const hh::BuildReport& report) {
    return double(report.levels.size() > 1 ? report.levels[1].candidates : 0);
  };
  hh::BuildReport levels;
  HDK_RETURN_NOT_OK(build(params, &levels).status());

  std::unordered_set<TermId> vf;
  for (TermId t : stats.VeryFrequentTerms(params.very_frequent_threshold)) {
    vf.insert(t);
  }
  const double unfiltered = double(
      hh::CandidateBuilder(params)
          .BuildLevel(2, store, 0, static_cast<DocId>(store.size()),
                      PermissiveOracle(std::move(vf)), nullptr)
          .size());
  const double filtered = level2_candidates(levels);
  std::printf("redundancy filtering (level-2 candidate keys, w=%u):\n",
              params.window);
  std::printf("  %-44s %12.0f\n",
              "all co-occurring non-VF term pairs (no filter)", unfiltered);
  std::printf("  %-44s %12.0f\n",
              "pairs of non-discriminative terms (paper rule)", filtered);
  std::printf("  %-44s %11.1fx\n", "reduction",
              filtered > 0 ? unfiltered / filtered : 0.0);

  for (uint32_t w : {5u, 10u, 20u, 40u}) {
    HdkParams p = params;
    p.window = w;
    hh::BuildReport report;
    HDK_RETURN_NOT_OK(build(p, &report).status());
    run.ablation_window.rows.push_back(
        {double(w), level2_candidates(report), w - 1.0});
  }
  std::printf("\nproximity filtering (level-2 keys vs window w, "
              "paper uses w=20):\n");
  std::printf("  %8s %14s %16s\n", "w", "level-2 keys", "~binom(w-1,1) law");
  run.ablation_window.Print();

  for (const auto& level : levels.levels) {
    run.ablation_levels.rows.push_back(
        {double(level.level), double(level.candidates), double(level.hdks),
         double(level.ndks), double(level.stored_postings)});
  }
  std::printf("\nsize filtering (keys and stored postings per level, "
              "smax=%u):\n", params.s_max);
  std::printf("  %6s %12s %12s %12s %16s\n", "s", "candidates", "HDKs",
              "NDKs", "stored postings");
  run.ablation_levels.Print();

  for (Freq df : {setup.DfMaxLow() / 2, setup.DfMaxLow(), setup.DfMaxHigh(),
                  setup.DfMaxHigh() * 2}) {
    HdkParams p = params;
    p.df_max = std::max<Freq>(2, df);
    p.rare_threshold = p.df_max;
    HDK_ASSIGN_OR_RETURN(auto contents, build(p, nullptr));
    run.ablation_dfmax.rows.push_back(
        {double(p.df_max), double(contents.NumKeys()),
         double(contents.StoredPostings()),
         double(contents.NumKeys(2) + contents.NumKeys(3))});
  }
  std::printf("\nDFmax trade-off (key vocabulary vs truncation):\n");
  std::printf("  %8s %12s %16s %14s\n", "DFmax", "total keys",
              "stored postings", "multi-term keys");
  run.ablation_dfmax.Print();
  return Status::OK();
}

Status Run(PaperRun& run) {
  Table1(run.setup);
  Table2(run.setup);
  Fig2(run);

  ExperimentContext ctx(run.setup);
  std::vector<corpus::Query> queries;
  engine::EnginesAtPoint point;
  for (uint32_t peers : run.setup.PeerSweep()) {
    HDK_ASSIGN_OR_RETURN(point, ctx.EnginesAt(peers));
    HDK_RETURN_NOT_OK(Measure(ctx, point, queries, run));
  }
  EstimateTheorem3(*point.hdk_low, run);
  Fig3(run);
  Fig4(run);
  Fig5(run);
  Fig6(run);
  Fig7(run);
  HDK_RETURN_NOT_OK(Fig8(ctx, queries, run));
  return Ablation(run);
}

void WriteJson(std::FILE* out, const PaperRun& run) {
  std::fprintf(out, "{\n  \"bench\": \"paper\",\n  \"scale\": \"%s\",\n",
               bench::ScaleName());
  bench::WriteHostJson(out);
  std::fprintf(out, "  \"tables\": {");
  const char* sep = "\n";
  for (const Table* t : run.Tables()) {
    std::fprintf(out, "%s    \"%s\": [", sep, t->name);
    for (size_t r = 0; r < t->rows.size(); ++r) {
      std::fprintf(out, "%s\n      {", r == 0 ? "" : ",");
      for (size_t c = 0; c < t->columns.size(); ++c) {
        std::fprintf(out, "%s\"%s\": %.10g", c == 0 ? "" : ", ",
                     t->columns[c].c_str(), t->rows[r][c]);
      }
      std::fprintf(out, "}");
    }
    std::fprintf(out, "\n    ]");
    sep = ",\n";
  }
  std::fprintf(out, "\n  },\n  \"claims\": [");
  sep = "\n";
  for (const Claim& c : run.card.claims) {
    std::fprintf(out,
                 "%s    {\"name\": \"%s\", \"verdict\": \"%s\", "
                 "\"metric\": \"%s\", \"measured\": %.6g, "
                 "\"tolerance\": \"%s\", \"reason\": \"%s\"}",
                 sep, c.name.c_str(), c.verdict.c_str(), c.metric.c_str(),
                 c.measured, c.tolerance.c_str(), c.reason.c_str());
    sep = ",\n";
  }
  std::fprintf(out, "\n  ]\n}\n");
}

}  // namespace

int main() {
  PaperRun run;
  run.setup = bench::SelectSetup();
  std::printf("Paper reproduction: Tables 1-2, Figures 2-8 and the filter "
              "ablation, %s scale\n", bench::ScaleName());
  bench::PrintSetup(run.setup);
  if (Status status = Run(run); !status.ok()) {
    std::fprintf(stderr, "bench_paper: %s\n", status.ToString().c_str());
    return 1;
  }

  const char* out_path = "BENCH_paper.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  WriteJson(out, run);
  std::fclose(out);
  std::printf("\nscorecard: %zu holds, %zu not reproduced, %zu fails "
              "(wrote %s)\n",
              run.card.Count("holds"), run.card.Count("not reproduced"),
              run.card.Count("fails"), out_path);
  return run.card.Count("fails") == 0 ? 0 : 1;
}

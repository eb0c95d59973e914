/**
 * @file
 * Figure 8(b) and Table 4 of the paper: the five TPC-H-derived Flink
 * queries (Table 3) under Flink's built-in per-field serializers and
 * under Skyway. Prints one breakdown row per (query, engine) cell and
 * the Table 4 normalized summary. The paper's shape: Skyway improves
 * overall time ~19% on average despite shipping ~68% more bytes, with
 * the deserialization column improving even though Flink's lazy
 * deserialization is already cheap.
 */

#include <cmath>

#include "bench/benchutil.hh"
#include "miniflink/queries.hh"

using namespace skyway;

int
main(int argc, char **argv)
{
    double scale = bench::parseScale(argc, argv, 0.25);
    bench::JsonReport report(argc, argv, "bench_fig8b_flink", scale);
    ClassCatalog cat = makeStandardCatalog();
    defineTpchClasses(cat);

    TpchSpec spec;
    spec.scale = scale;
    TpchData db = generateTpch(spec);
    std::printf("TPC-H-shaped dataset: %zu lineitems, %zu orders, "
                "%zu customers (scale %.2f)\n",
                db.lineitem.size(), db.orders.size(),
                db.customer.size(), scale);

    bench::printHeader(
        "Figure 8(b): Flink queries (per-worker average)");
    bench::printBreakdownHeader();

    struct Pair
    {
        FlinkQueryResult builtin, skyway;
    };
    std::vector<std::pair<char, Pair>> results;

    auto recordValues = [](bench::JsonReport::Row &row,
                           const FlinkQueryResult &res) {
        row.value("compute_ms", res.average.computeNs / 1e6);
        row.value("ser_ms", res.average.serNs / 1e6);
        row.value("write_ms", res.average.writeIoNs / 1e6);
        row.value("deser_ms", res.average.deserNs / 1e6);
        row.value("read_ms", res.average.readIoNs / 1e6);
        row.value("total_ms", res.average.totalNs() / 1e6);
        row.value("shuffled_bytes",
                  static_cast<double>(res.shuffledBytes));
    };

    for (char q : {'A', 'B', 'C', 'D', 'E'}) {
        Pair p;
        {
            auto row = report.row(std::string("Q") + q + "/builtin");
            FlinkCluster cluster(cat, FlinkSerMode::Builtin);
            p.builtin = runQuery(q, cluster, db);
            recordValues(row, p.builtin);
        }
        {
            auto row = report.row(std::string("Q") + q + "/skyway");
            FlinkCluster cluster(cat, FlinkSerMode::Skyway);
            p.skyway = runQuery(q, cluster, db);
            recordValues(row, p.skyway);
        }
        bench::printBreakdownRow(std::string("Q") + q + "/builtin",
                                 p.builtin.average);
        bench::printBreakdownRow(std::string("Q") + q + "/skyway",
                                 p.skyway.average);
        if (p.builtin.checksum != p.skyway.checksum)
            panic(std::string("Q") + q + ": engines disagree");
        results.emplace_back(q, p);
    }

    bench::printHeader("Table 3: query descriptions");
    for (auto &[q, p] : results)
        std::printf("  Q%c  %s\n", q, queryDescription(q));

    bench::printHeader(
        "Table 4: Skyway normalized to Flink built-in");
    std::printf("%-4s %8s %8s %8s %8s %8s %8s\n", "q", "overall",
                "ser", "write", "des", "read", "size");
    double lg[6] = {0, 0, 0, 0, 0, 0};
    for (auto &[q, p] : results) {
        auto ratio = [](double a, double b) {
            return b > 0 ? a / b : 1.0;
        };
        double r[6] = {
            ratio(p.skyway.average.totalNs(),
                  p.builtin.average.totalNs()),
            ratio(p.skyway.average.serNs, p.builtin.average.serNs),
            ratio(p.skyway.average.writeIoNs,
                  p.builtin.average.writeIoNs),
            ratio(p.skyway.average.deserNs,
                  p.builtin.average.deserNs),
            ratio(p.skyway.average.readIoNs,
                  p.builtin.average.readIoNs),
            ratio(static_cast<double>(p.skyway.shuffledBytes),
                  static_cast<double>(p.builtin.shuffledBytes)),
        };
        std::printf("Q%-3c %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n", q,
                    r[0], r[1], r[2], r[3], r[4], r[5]);
        for (int i = 0; i < 6; ++i)
            lg[i] += std::log(r[i]);
    }
    std::printf("%-4s %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n", "gm",
                std::exp(lg[0] / 5), std::exp(lg[1] / 5),
                std::exp(lg[2] / 5), std::exp(lg[3] / 5),
                std::exp(lg[4] / 5), std::exp(lg[5] / 5));
    std::printf("(paper geomeans: overall 0.81, ser 0.77, write 0.96, "
                "des 0.75, read 0.61, size 1.68)\n");
    return 0;
}

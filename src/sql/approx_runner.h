// The Section 5 practical scheme over SQL: a front end of
// engine::KeyRepairLoop, which owns the loop itself. SqlApproxRunner parses
// the statement, rewrites it with RewriteWithDeletions, and per round
// executes the rewritten statement with the sampled R_del tables. Each
// frequency estimates the probability that the tuple is an answer over a
// uniformly sampled key repair, with the Hoeffding guarantee of Theorem 9.

#ifndef OPCQA_SQL_APPROX_RUNNER_H_
#define OPCQA_SQL_APPROX_RUNNER_H_

#include <map>
#include <string>
#include <vector>

#include "engine/key_repair_executor.h"
#include "sql/catalog.h"
#include "sql/executor.h"
#include "sql/rewriter.h"

namespace opcqa {
namespace sql {

/// Key constraint at the SQL level: the key columns of a table (by index).
struct TableKey {
  std::string table;
  std::vector<size_t> key_positions;
};

struct SqlApproxOptions {
  /// Probability of keeping *no* tuple from a violating group — the
  /// Example 5 "trust neither source" case; 0 reproduces the classical
  /// subset-repair sampling.
  double keep_none_probability = 0.0;
  ExecOptions exec;
};

/// Result row → n_t / n (`frequency`), plus the SQL-level details.
struct SqlApproxResult : engine::ApproxAnswers {
  /// Output column names of the query.
  std::vector<std::string> columns;
  /// The rewritten SQL actually executed (for display/debugging).
  std::string rewritten_sql;
};

class SqlApproxRunner {
 public:
  /// `catalog` holds the dirty tables; `keys` at most one key per table,
  /// in the order rounds draw them. Tables named "<table>__del" are
  /// reserved for the sampled deletions.
  SqlApproxRunner(Catalog catalog, std::vector<TableKey> keys, uint64_t seed,
                  SqlApproxOptions options = {});

  /// Runs the n-round loop for `sql`.
  Result<SqlApproxResult> Run(std::string_view sql, size_t rounds);

  /// n(ε,δ) from Sampler::NumSamples, then Run.
  Result<SqlApproxResult> RunWithGuarantee(std::string_view sql,
                                           double epsilon, double delta);

  /// Samples one set of R_del tables (one entry per keyed table, possibly
  /// empty). Exposed for tests.
  std::map<std::string, engine::Relation> SampleDeletions();

 private:
  std::map<std::string, engine::Relation> DeletionTables(
      const engine::Deletions& deletions) const;

  Catalog catalog_;
  std::vector<TableKey> keys_;
  ExecOptions exec_;
  engine::KeyRepairLoop loop_;
};

}  // namespace sql
}  // namespace opcqa

#endif  // OPCQA_SQL_APPROX_RUNNER_H_

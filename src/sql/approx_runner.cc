#include "sql/approx_runner.h"

#include "repair/sampler.h"
#include "sql/parser.h"
#include "util/string_util.h"

namespace opcqa {
namespace sql {
namespace {

std::vector<engine::KeyedRelation> Keyed(const Catalog& catalog,
                                         const std::vector<TableKey>& keys) {
  std::vector<engine::KeyedRelation> keyed;
  for (const TableKey& key : keys) {
    const engine::Relation* table = catalog.Find(key.table);
    OPCQA_CHECK(table != nullptr) << "unknown keyed table " << key.table;
    keyed.push_back({table, key.key_positions});
  }
  return keyed;
}

}  // namespace

SqlApproxRunner::SqlApproxRunner(Catalog catalog, std::vector<TableKey> keys,
                                 uint64_t seed, SqlApproxOptions options)
    : catalog_(std::move(catalog)),
      keys_(std::move(keys)),
      exec_(options.exec),
      // SQL keys carry no trust weights: survivors are drawn uniformly.
      loop_(Keyed(catalog_, keys_), seed,
            {/*trust=*/{}, options.keep_none_probability}) {}

std::map<std::string, engine::Relation> SqlApproxRunner::DeletionTables(
    const engine::Deletions& deletions) const {
  std::map<std::string, engine::Relation> tables;
  for (size_t k = 0; k < keys_.size(); ++k) {
    const engine::Relation* table = catalog_.Find(keys_[k].table);
    engine::Relation del(StrCat(keys_[k].table, "__del"), table->columns());
    for (size_t row : deletions[k]) del.Add(table->rows()[row]);
    tables.emplace(keys_[k].table, std::move(del));
  }
  return tables;
}

std::map<std::string, engine::Relation> SqlApproxRunner::SampleDeletions() {
  return DeletionTables(loop_.SampleDeletions());
}

Result<SqlApproxResult> SqlApproxRunner::Run(std::string_view sql,
                                             size_t rounds) {
  Result<StatementPtr> parsed = Parse(sql);
  if (!parsed.ok()) return parsed.status();
  std::map<std::string, std::string> deletion_names;
  for (const TableKey& key : keys_) {
    deletion_names[key.table] = StrCat(key.table, "__del");
  }
  StatementPtr rewritten = RewriteWithDeletions(*parsed, deletion_names);

  SqlApproxResult result;
  result.rewritten_sql = rewritten->ToString();
  Result<engine::ApproxAnswers> answers = loop_.Run(
      rounds,
      [&](const engine::Deletions& deletions) -> Result<engine::Relation> {
        Catalog scratch = catalog_;
        for (auto& [table, del] : DeletionTables(deletions)) {
          scratch.Register(StrCat(table, "__del"), std::move(del));
        }
        Result<engine::Relation> answer = Execute(*rewritten, scratch, exec_);
        if (answer.ok() && result.columns.empty()) {
          result.columns = answer->columns();
        }
        return answer;
      });
  if (!answers.ok()) return answers.status();
  static_cast<engine::ApproxAnswers&>(result) = std::move(answers).value();
  return result;
}

Result<SqlApproxResult> SqlApproxRunner::RunWithGuarantee(
    std::string_view sql, double epsilon, double delta) {
  return Run(sql, Sampler::NumSamples(epsilon, delta));
}

}  // namespace sql
}  // namespace opcqa

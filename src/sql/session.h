// Session: owns the execution context, optimizer, and planner; the entry
// point for creating DataFrames (the analogue of SparkSession).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "engine/executor_context.h"
#include "sql/dataframe.h"
#include "sql/optimizer.h"
#include "sql/physical_plan.h"
#include "sql/planner.h"

namespace idf {

class Session : public std::enable_shared_from_this<Session> {
 public:
  static Result<SessionPtr> Make(const EngineConfig& config = EngineConfig());

  /// Builds a session over an existing executor context. The query
  /// service uses this for per-query planning sessions: the context shares
  /// the base session's thread pool (via ExecutorContext::MakeWithPool)
  /// but carries its own metrics and cancellation token, so many such
  /// sessions can plan and execute concurrently without creating a thread
  /// pool per query or racing on shared state.
  static Result<SessionPtr> MakeWithContext(ExecutorContextPtr exec);

  ExecutorContext& exec() { return *exec_; }
  const EngineConfig& config() const { return exec_->config(); }
  QueryMetrics& metrics() { return exec_->metrics(); }

  /// Registers an optimizer rule (the hook the Indexed DataFrame library
  /// uses to inject its index-aware rewrites).
  void AddOptimizerRule(OptimizerRulePtr rule);

  /// Registers a physical strategy (tried before the built-in one).
  void AddPhysicalStrategy(PhysicalStrategyPtr strategy);

  /// True once a rule/strategy bundle with this tag was installed
  /// (idempotence for extension installers).
  bool HasExtension(const std::string& tag) const;
  void MarkExtension(const std::string& tag);

  /// Creates a DataFrame over in-memory rows (validates against schema).
  /// The data is round-robin partitioned into config().num_partitions.
  Result<DataFrame> CreateDataFrame(SchemaPtr schema, RowVec rows,
                                    const std::string& name = "table");

  /// Wraps an arbitrary logical plan.
  DataFrame FromPlan(LogicalPlanPtr plan);

  /// Registers `df` under `name` for SQL queries (re-registering replaces,
  /// which is how streaming pipelines expose fresh views).
  Status RegisterTable(const std::string& name, DataFrame df);

  /// The DataFrame registered under `name`.
  Result<DataFrame> Table(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  /// Parses and plans a SQL SELECT over the registered tables (lazy; run
  /// with .Collect()/.Count() like any DataFrame).
  Result<DataFrame> Sql(const std::string& query);

  /// Full pipeline: analyze -> optimize -> plan.
  Result<PhysicalOpPtr> PlanQuery(const LogicalPlanPtr& plan);

  /// Lowers an already-optimized plan without re-analyzing or
  /// re-optimizing (prepared statements lower their optimized tree once).
  Result<PhysicalOpPtr> PlanOptimized(const LogicalPlanPtr& optimized);

  /// Analyze + optimize only (inspection and tests).
  Result<LogicalPlanPtr> OptimizeOnly(const LogicalPlanPtr& plan);

  /// Executes to partitions.
  Result<PartitionVec> ExecutePartitions(const LogicalPlanPtr& plan);

  /// Executes and collects all rows.
  Result<RowVec> ExecuteCollect(const LogicalPlanPtr& plan);

 private:
  explicit Session(ExecutorContextPtr exec);

  ExecutorContextPtr exec_;
  Optimizer optimizer_;
  Planner planner_;
  std::vector<std::string> extensions_;
  // Plans, not DataFrames: a stored DataFrame would hold a SessionPtr back
  // to this session, and the resulting shared_ptr cycle would leak every
  // session with a registered table. Table() re-wraps the plan on demand.
  std::map<std::string, LogicalPlanPtr> tables_;
};

}  // namespace idf

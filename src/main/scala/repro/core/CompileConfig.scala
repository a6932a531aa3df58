package repro.core

/** Knobs controlling which of Conclave's rewrites are applied.
  *
  * Defaults correspond to the full Conclave pipeline. The benchmarks use
  * restricted configurations to reproduce the paper's baselines:
  * `mpcOnly` (everything under MPC, §7.1/§7.3 Sharemind baselines) and
  * `smcqlCompat` (no push-down past filters on private columns, §7.4).
  */
final case class CompileConfig(
    /** Master switch: apply any rewrites at all. */
    rewrites: Boolean = true,
    /** Parties consent to push-downs that produce data-dependent MPC input
      * cardinalities (splitting aggregations/distincts leaks per-party
      * distinct-key counts — paper §5.2 "Security implications").
      */
    allowCardinalityLeak: Boolean = true,
    /** Push the frontier down past filters. Disabled in SMCQL-compatibility
      * mode, which keeps filters over private columns under MPC (§7.4).
      */
    pushFiltersDown: Boolean = true,
)

object CompileConfig {
  val default: CompileConfig = CompileConfig()

  /** Run the entire query under MPC (baseline). */
  val mpcOnly: CompileConfig = CompileConfig(rewrites = false)

  /** Match SMCQL's security guarantee: no push-down past private filters. */
  val smcqlCompat: CompileConfig = CompileConfig(pushFiltersDown = false)
}

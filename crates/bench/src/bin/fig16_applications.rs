//! Regenerates the corresponding paper figure; pass `--quick` for a
//! reduced-size smoke run and `--jobs N` to bound worker threads.

fn main() {
    let quick = nca_bench::quick_from_env_args();
    let pool = nca_bench::pool_from_env_args();
    nca_scenario::fig16::print_on(quick, &pool);
}

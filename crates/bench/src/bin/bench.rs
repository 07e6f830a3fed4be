//! `bench` — the experiment CLI; every subcommand lives in [`bench::cli`].
fn main() {
    bench::cli::main()
}

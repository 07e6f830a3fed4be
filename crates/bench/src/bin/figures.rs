//! `figures` — the historical second name of the `bench` CLI.
fn main() {
    bench::cli::main()
}

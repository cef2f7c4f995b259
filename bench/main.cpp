// The main() of every bench binary: a bench defines run() and this runs it
// through util::run_main, so misuse exits 2 and any other failure 1.
#include "util/flags.h"

int run(int argc, char** argv);

int main(int argc, char** argv) {
  return fedsu::util::run_main(argc, argv, run);
}

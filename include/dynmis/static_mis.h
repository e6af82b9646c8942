// Public static-solver surface: the solvers used for initial solutions and
// quality references (exact branch-and-reduce, ARW local search, min-degree
// greedy, and the kernelization reductions), and the start-solution helper
// built on them.

#ifndef DYNMIS_INCLUDE_DYNMIS_STATIC_MIS_H_
#define DYNMIS_INCLUDE_DYNMIS_STATIC_MIS_H_

#include "src/static_mis/arw.h"
#include "src/static_mis/exact.h"
#include "src/static_mis/greedy.h"
#include "src/static_mis/initial_solution.h"
#include "src/static_mis/reductions.h"

#endif  // DYNMIS_INCLUDE_DYNMIS_STATIC_MIS_H_

"""Exception types shared across the pipeline modules."""


class StressmonError(Exception):
    """Base class for all pipeline errors."""


class DataFormatError(StressmonError):
    """An input file could not be parsed; message names file and line."""


class ConfigError(StressmonError):
    """Simulation or run configuration is invalid."""


# -- signal cleaning ---------------------------------------------------------

class InvalidBand(StressmonError):
    """Band-pass frequency ordering 0 < low < high < rate/2 violated."""


class Unstable(StressmonError):
    """Filter design produced poles on or outside the unit circle."""


class TooShort(StressmonError):
    """Burst shorter than the minimum length the operation needs."""


# -- heart-rate analysis -----------------------------------------------------

class NoPlausiblePeaks(StressmonError):
    """No threshold level yielded a heart rate in the plausible band."""


class TooFewIntervals(StressmonError):
    """Fewer than the minimum number of NN intervals remain."""


class InsufficientSpan(StressmonError):
    """NN series covers too little time for a breathing-rate estimate."""


# -- dataset assembly --------------------------------------------------------

class OutOfRange(StressmonError):
    """Stress level outside the 1..5 Likert range."""


class EmptyColumn(StressmonError):
    """A feature column has no observed values to impute from."""


# -- learning ----------------------------------------------------------------

class DegenerateLabels(UserWarning):
    """Training labels contain a single class; model is a constant predictor."""


class KTooLarge(StressmonError):
    """k exceeds the number of training rows."""


class TooFewGroups(StressmonError):
    """Fewer distinct users than requested folds."""


class InsufficientTargetData(StressmonError):
    """Target user has fewer than two labeled windows."""


class LengthMismatch(StressmonError):
    """Prediction and truth vectors differ in length."""


class EmptySelection(StressmonError):
    """Feature selection asked for zero features."""


class SelectionTooLarge(StressmonError, ValueError):
    """Feature selection asked for more features than the matrix has."""


# -- explanation -------------------------------------------------------------

class TooManyFeatures(StressmonError):
    """Exact coalition enumeration is infeasible beyond 16 features."""


class EmptyBackground(StressmonError):
    """Shapley computation needs at least one background row."""


class NotATreeModel(StressmonError, ValueError):
    """Exact Shapley explanation was asked of a model without trees."""


# -- EMA triggering ----------------------------------------------------------

class InsufficientData(StressmonError):
    """Accelerometer window too short for a wear decision."""


class NoWearYet(StressmonError):
    """Waiting period undefined before the first wear of the day."""

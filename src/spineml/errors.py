"""Domain exceptions raised across the pipeline.

Every error a caller is expected to handle routes through PipelineError so
the CLI can map domain failures to exit code 1 and usage failures to 2.
"""


class PipelineError(Exception):
    """Base class for all domain errors raised by spineml."""


class MissingColumnError(PipelineError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"missing column: {column}")


class MalformedCsvError(PipelineError):
    def __init__(self, line: int, reason: str = ""):
        self.line = line
        msg = f"malformed CSV at data row {line}"
        super().__init__(f"{msg}: {reason}" if reason else msg)


class EmptyAfterFilteringError(PipelineError):
    """No rows survived ingestion filtering."""


class OutOfRangeError(PipelineError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"value out of range: {value!r}")


class TooFewRowsError(PipelineError):
    pass


class ColumnMismatchError(PipelineError):
    pass


class NonIntegerCategoricalError(PipelineError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"categorical column holds non-integer codes: {column}")


class UnknownGroupError(PipelineError):
    def __init__(self, group_id: str):
        self.group_id = group_id
        super().__init__(f"unknown variable group: {group_id}")


class SyntheticSettingError(PipelineError, ValueError):
    """A synthetic-data setting outside the range the generator accepts."""


class NTooSmallError(SyntheticSettingError):
    pass


class NonFiniteScalerError(PipelineError, ValueError):
    """A scaler statistic that is no finite number, as when a column's
    squares overflow."""


class SingleClassError(PipelineError):
    """Fitting requires both outcome classes to be present."""


class ClassTooSmallError(PipelineError):
    pass


class KOutOfRangeError(PipelineError):
    pass


class WidthMismatchError(PipelineError):
    pass


class NegativeFeatureError(PipelineError):
    def __init__(self, row: int, col: int):
        self.row = row
        self.col = col
        super().__init__(f"negative feature value at row {row}, column {col}")


class EmptyTrainingSetError(PipelineError):
    pass


class MinorityTooSmallError(PipelineError):
    pass


class ClassSmallerThanFoldsError(PipelineError):
    pass


class EmptyGridError(PipelineError):
    pass


class LengthMismatchError(PipelineError):
    pass


class NonBinaryLabelError(PipelineError):
    pass


class EmptyMatrixError(PipelineError):
    pass


class DataSourceError(PipelineError):
    pass


class VersionMismatchError(PipelineError):
    pass


class CorruptFileError(PipelineError):
    pass


class MissingFeatureError(PipelineError):
    def __init__(self, feature: str):
        self.feature = feature
        super().__init__(f"missing feature: {feature}")


class OutOfSchemaValueError(PipelineError):
    pass


class ConfigError(PipelineError):
    pass
